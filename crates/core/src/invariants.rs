//! Executable machine-state invariants (paper §5.2, Fig. 4).
//!
//! CoStar's proofs proceed by showing that each machine step preserves
//! invariants over the machine state; the invariants then entail the
//! big-step properties. Rust has no proofs, so the invariants become
//! *checkers*: [`crate::instrument::run_instrumented`] evaluates them
//! after every step, and the property tests fuzz them across random
//! grammars and inputs. A checker returning an error on any reachable
//! state would falsify the corresponding preservation lemma
//! (Lemma 5.2 for stack well-formedness).

use crate::state::MachineState;
use costar_grammar::{forest_roots, has_production, Grammar, Symbol, Token, Tree};
use std::fmt;

/// A violated invariant, naming the rule that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// What about the state violated it.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant {} violated: {}", self.invariant, self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

fn violation(invariant: &'static str, detail: String) -> Result<(), InvariantViolation> {
    Err(InvariantViolation { invariant, detail })
}

/// `StacksWf_I` (paper Fig. 4): the prefix and suffix stacks are
/// well-formed.
///
/// * The stacks have equal height.
/// * The bottom suffix frame is the start form `[S]` (it names no
///   production, so it has no caller).
/// * Every upper frame names a grammar production, and the caller
///   frame's last-processed symbol is that production's left-hand side.
/// * In every frame, the roots of the prefix forest spell the processed
///   symbols `rhs[..dot]` of the matching suffix frame.
///
/// # Errors
///
/// Returns the first violation found, scanning bottom-up.
pub fn check_stacks_wf(g: &Grammar, state: &MachineState) -> Result<(), InvariantViolation> {
    const NAME: &str = "StacksWf_I";
    if state.prefix.len() != state.suffix.len() {
        return violation(
            NAME,
            format!(
                "stack heights differ: prefix {}, suffix {}",
                state.prefix.len(),
                state.suffix.len()
            ),
        );
    }
    if state.suffix.is_empty() {
        return violation(NAME, "suffix stack is empty".to_owned());
    }

    if state.suffix[0].prod.is_some() {
        return violation(
            NAME,
            "bottom frame names a production, not the start form".to_owned(),
        );
    }

    let top = state.suffix.len() - 1;
    for (i, frame) in state.suffix.iter().enumerate() {
        if frame.prod.is_some_and(|p| p.index() >= g.num_productions()) {
            return violation(
                NAME,
                format!("frame {i} names no production of the grammar"),
            );
        }
        let rhs = frame.rhs(g);
        if frame.dot > rhs.len() {
            return violation(NAME, format!("frame {i} dot out of range"));
        }
        // Prefix forest roots must spell the processed symbols. A frame
        // with a frame above it is mid-push: its dot has already passed
        // the open nonterminal, whose tree arrives at return time, so its
        // forest covers `rhs[..dot-1]`.
        let processed = if i == top {
            &rhs[..frame.dot]
        } else {
            if frame.dot == 0 {
                return violation(
                    NAME,
                    format!("non-top frame {i} has not passed its open nonterminal"),
                );
            }
            &rhs[..frame.dot - 1]
        };
        let roots = forest_roots(&state.prefix[i].trees);
        if roots != processed {
            return violation(
                NAME,
                format!("frame {i}: prefix forest roots do not spell the processed symbols"),
            );
        }
        if i == 0 {
            continue;
        }
        // Upper frames name a production, whose left-hand side sits just
        // before the caller frame's dot (the machine advances the
        // caller's dot at push time).
        let Some(x) = frame.caller(g) else {
            return violation(NAME, format!("upper frame {i} has no caller"));
        };
        let below = &state.suffix[i - 1];
        if below.dot == 0 || below.rhs(g).get(below.dot - 1) != Some(&Symbol::Nt(x)) {
            return violation(
                NAME,
                format!("frame {i}'s caller is not the symbol before the dot below"),
            );
        }
    }
    Ok(())
}

/// The visited-set invariant backing Lemma 5.10's soundness argument
/// (§5.4.2), in its checkable structural form: every visited nonterminal
/// is the caller of some suffix frame above the last consume — i.e. it has
/// been opened and not yet fully processed.
pub fn check_visited(g: &Grammar, state: &MachineState) -> Result<(), InvariantViolation> {
    const NAME: &str = "Visited_I";
    for x in state.visited.iter() {
        let open = state.suffix.iter().any(|f| f.caller(g) == Some(x));
        if !open {
            return violation(
                NAME,
                format!("visited nonterminal {x} is not open on the suffix stack"),
            );
        }
    }
    Ok(())
}

/// The derivation component of `UniqeDer_I` (paper Fig. 5): the prefix
/// stack holds a partial parse of exactly the consumed input. Concretely:
///
/// * concatenating the yields of all prefix-frame forests (bottom-up)
///   reproduces `word[..cursor]` token for token;
/// * every tree stored on the prefix stack is internally well-formed —
///   each interior node instantiates a grammar production.
///
/// (The *uniqueness* quantification of `UniqeDer_I` — "no other partial
/// tree exists" — ranges over all alternative derivations and is checked
/// end-to-end against the derivation-counting oracle in the integration
/// suites instead.)
pub fn check_prefix_derivation(
    g: &Grammar,
    state: &MachineState,
    word: &[Token],
) -> Result<(), InvariantViolation> {
    const NAME: &str = "PrefixDer_I";
    let mut consumed: Vec<&Token> = Vec::new();
    for (i, frame) in state.prefix.iter().enumerate() {
        for tree in &frame.trees {
            if let Err(detail) = check_subtree(g, tree) {
                return violation(NAME, format!("frame {i}: {detail}"));
            }
            collect_yield(tree, &mut consumed);
        }
    }
    if state.cursor > word.len() {
        return violation(NAME, "cursor beyond end of input".to_owned());
    }
    let expected = &word[..state.cursor];
    if consumed.len() != expected.len()
        || consumed
            .iter()
            .zip(expected)
            .any(|(a, b)| a.terminal() != b.terminal())
    {
        return violation(
            NAME,
            format!(
                "prefix forests yield {} tokens, cursor consumed {}",
                consumed.len(),
                expected.len()
            ),
        );
    }
    Ok(())
}

fn collect_yield<'t>(tree: &'t Tree, out: &mut Vec<&'t Token>) {
    match tree {
        Tree::Leaf(t) => out.push(t),
        Tree::Node(_, children) => {
            for c in children {
                collect_yield(c, out);
            }
        }
        // Recovery error nodes hold the skipped tokens; those tokens were
        // consumed from the input, so they count toward the yield.
        Tree::Error(e) => out.extend(e.skipped.iter()),
    }
}

/// Every interior node of a stored tree must instantiate a production.
fn check_subtree(g: &Grammar, tree: &Tree) -> Result<(), String> {
    match tree {
        Tree::Leaf(_) => Ok(()),
        // Error nodes are recovery splices, not derivations; they are
        // transparent to the production check (forest_roots skips them).
        Tree::Error(_) => Ok(()),
        Tree::Node(x, children) => {
            // A node that received an error splice no longer instantiates
            // its production exactly; only pristine nodes are checked.
            if !children.iter().any(|c| matches!(c, Tree::Error(_))) {
                let roots = forest_roots(children);
                if !has_production(g, *x, &roots) {
                    return Err(format!("stored node for {x} matches no production"));
                }
            }
            children.iter().try_for_each(|c| check_subtree(g, c))
        }
    }
}

/// Runs every invariant checker.
pub fn check_all(g: &Grammar, state: &MachineState) -> Result<(), InvariantViolation> {
    check_stacks_wf(g, state)?;
    check_visited(g, state)?;
    Ok(())
}

/// Runs every invariant checker, including the input-dependent
/// partial-derivation invariant.
pub fn check_all_with_input(
    g: &Grammar,
    state: &MachineState,
    word: &[Token],
) -> Result<(), InvariantViolation> {
    check_all(g, state)?;
    check_prefix_derivation(g, state, word)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{MachineState, PrefixFrame, SuffixFrame};
    use costar_grammar::{GrammarBuilder, NonTerminal, ProdId, Token, Tree};

    fn fig2() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S").build().unwrap()
    }

    #[test]
    fn initial_state_is_well_formed() {
        let g = fig2();
        let st = MachineState::initial(g.num_nonterminals());
        assert!(check_all(&g, &st).is_ok());
    }

    #[test]
    fn height_mismatch_detected() {
        let g = fig2();
        let mut st = MachineState::initial(g.num_nonterminals());
        st.prefix.push(PrefixFrame::default());
        let err = check_stacks_wf(&g, &st).unwrap_err();
        assert!(err.detail.contains("heights differ"));
    }

    #[test]
    fn bottom_frame_naming_a_production_detected() {
        let g = fig2();
        let a = g.symbols().lookup_nonterminal("A").unwrap();
        let mut st = MachineState::initial(g.num_nonterminals());
        st.suffix[0] = SuffixFrame::new(g.alternatives(a)[1]);
        let err = check_stacks_wf(&g, &st).unwrap_err();
        assert!(err.detail.contains("bottom frame"));
    }

    #[test]
    fn frame_naming_no_production_detected() {
        let g = fig2();
        let mut st = MachineState::initial(g.num_nonterminals());
        st.suffix[0].dot = 1;
        st.suffix
            .push(SuffixFrame::new(ProdId::from_index(g.num_productions())));
        st.prefix.push(PrefixFrame::default());
        let err = check_stacks_wf(&g, &st).unwrap_err();
        assert!(err.detail.contains("names no production"));
    }

    #[test]
    fn bogus_upper_frame_detected() {
        let g = fig2();
        let s = g.start();
        let a = g.symbols().lookup_nonterminal("A").unwrap();
        let mut st = MachineState::initial(g.num_nonterminals());
        // Fake a push of A's production under the bottom frame, whose
        // processed symbol is S, not A.
        st.suffix[0].dot = 1;
        st.suffix.push(SuffixFrame::new(g.alternatives(a)[1]));
        st.prefix.push(PrefixFrame::default());
        let err = check_stacks_wf(&g, &st).unwrap_err();
        assert!(err.detail.contains("caller is not the symbol"), "{err}");
        // The same frame over an S-frame whose dot passed A holds.
        st.suffix[0] = SuffixFrame::bottom().advanced();
        st.suffix.insert(
            1,
            SuffixFrame {
                prod: Some(g.alternatives(s)[0]),
                dot: 1,
            },
        );
        st.prefix.insert(1, PrefixFrame::default());
        assert!(check_stacks_wf(&g, &st).is_ok());
    }

    #[test]
    fn prefix_roots_must_match_processed_symbols() {
        let g = fig2();
        let mut st = MachineState::initial(g.num_nonterminals());
        let b = g.symbols().lookup_terminal("b").unwrap();
        st.prefix[0].trees.push(Tree::Leaf(Token::new(b, "b")));
        let err = check_stacks_wf(&g, &st).unwrap_err();
        assert!(err.detail.contains("roots"));
    }

    #[test]
    fn prefix_derivation_checks_yield_against_cursor() {
        let g = fig2();
        let b = g.symbols().lookup_terminal("b").unwrap();
        let word = vec![Token::new(b, "b")];
        let mut st = MachineState::initial(g.num_nonterminals());
        // Initially: nothing consumed, empty forests — holds.
        assert!(check_prefix_derivation(&g, &st, &word).is_ok());
        // A leaf stored without advancing the cursor violates it.
        st.prefix[0].trees.push(Tree::Leaf(word[0].clone()));
        let err = check_prefix_derivation(&g, &st, &word).unwrap_err();
        assert_eq!(err.invariant, "PrefixDer_I");
        // Advancing the cursor restores it.
        st.cursor = 1;
        assert!(check_prefix_derivation(&g, &st, &word).is_ok());
    }

    #[test]
    fn prefix_derivation_rejects_malformed_stored_trees() {
        let g = fig2();
        let b = g.symbols().lookup_terminal("b").unwrap();
        let s = g.start();
        let word = vec![Token::new(b, "b")];
        let mut st = MachineState::initial(g.num_nonterminals());
        // Node(S, [Leaf b]) is not a production of S.
        st.prefix[0]
            .trees
            .push(Tree::Node(s, vec![Tree::Leaf(word[0].clone())]));
        st.cursor = 1;
        let err = check_prefix_derivation(&g, &st, &word).unwrap_err();
        assert!(err.detail.contains("no production"));
    }

    #[test]
    fn stray_visited_nonterminal_detected() {
        let g = fig2();
        let mut st = MachineState::initial(g.num_nonterminals());
        st.visited.insert(NonTerminal::from_index(0));
        let err = check_visited(&g, &st).unwrap_err();
        assert_eq!(err.invariant, "Visited_I");
        assert!(err.to_string().contains("not open"));
    }
}
