//! Executable derivation relation (paper Fig. 3).
//!
//! CoStar's correctness specification is the mutually inductive pair of
//! judgments `s -v-> w` ("symbol `s` derives word `w`, producing tree `v`")
//! and `γ -f-> w` (for sentential forms and forests). In Coq these are
//! relations used in proofs; here they become *checkers*: given a tree the
//! parser produced, [`check_tree`] decides whether the derivation judgment
//! holds. Together with the Earley oracle in `costar-baselines`, this is
//! how the soundness theorems (5.1 and 5.6) are validated in tests.

use crate::grammar::Grammar;
use crate::symbol::{NonTerminal, Symbol};
use crate::token::Token;
use crate::tree::{forest_roots, Tree};
use std::fmt;

/// Why a tree failed the derivation check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerivationError {
    /// A leaf's terminal does not match the token at its position in the
    /// word, or the word ended early / has leftover tokens.
    LeafMismatch {
        /// Index in the word where the mismatch occurred.
        at: usize,
    },
    /// A node `Node(X, f)` whose children's roots spell a sentential form
    /// that is not a right-hand side of `X` in the grammar
    /// (the `X → γ ∈ G` premise of DerNonterminal).
    NoSuchProduction {
        /// The offending node's nonterminal.
        lhs: NonTerminal,
    },
    /// The root of the tree is not the expected start symbol.
    WrongRoot,
    /// The tree's yield is not the input word.
    YieldMismatch,
    /// The tree contains a recovery [`Tree::Error`] node — by definition
    /// not part of any derivation.
    ErrorNode {
        /// Index in the word where the error node sits.
        at: usize,
    },
}

impl fmt::Display for DerivationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DerivationError::LeafMismatch { at } => {
                write!(f, "leaf token mismatch at word position {at}")
            }
            DerivationError::NoSuchProduction { lhs } => {
                write!(
                    f,
                    "node for {lhs} uses a right-hand side not in the grammar"
                )
            }
            DerivationError::WrongRoot => write!(f, "tree root is not the start symbol"),
            DerivationError::YieldMismatch => {
                write!(f, "tree yield differs from the input word")
            }
            DerivationError::ErrorNode { at } => {
                write!(f, "tree contains a recovery error node at position {at}")
            }
        }
    }
}

impl std::error::Error for DerivationError {}

/// Checks the judgment `X -Node(X,f)-> w`: the tree is a well-formed parse
/// tree for word `w` rooted at `root` with respect to grammar `g`.
///
/// This is the executable form of the paper's Theorem 5.1 / 5.6 conclusion
/// "v is a correct parse tree rooted at S for w".
///
/// # Errors
///
/// Returns the first [`DerivationError`] found in a pre-order walk.
///
/// # Examples
///
/// ```
/// use costar_grammar::{check_tree, GrammarBuilder, Token, Tree};
/// let mut gb = GrammarBuilder::new();
/// gb.rule("S", &["a"]);
/// let g = gb.start("S").build()?;
/// let a = g.symbols().lookup_terminal("a").unwrap();
/// let s = g.symbols().lookup_nonterminal("S").unwrap();
/// let word = vec![Token::new(a, "a")];
/// let tree = Tree::Node(s, vec![Tree::Leaf(word[0].clone())]);
/// assert!(check_tree(&g, s, &word, &tree).is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_tree(
    g: &Grammar,
    root: NonTerminal,
    word: &[Token],
    tree: &Tree,
) -> Result<(), DerivationError> {
    if tree.root_symbol() != Some(Symbol::Nt(root)) {
        return Err(DerivationError::WrongRoot);
    }
    let consumed = check_sym(g, tree, word, 0)?;
    if consumed != word.len() {
        return Err(DerivationError::YieldMismatch);
    }
    Ok(())
}

/// Checks a subtree starting at word position `at`; returns the position
/// after the subtree's yield.
fn check_sym(
    g: &Grammar,
    tree: &Tree,
    word: &[Token],
    at: usize,
) -> Result<usize, DerivationError> {
    match tree {
        Tree::Leaf(t) => match word.get(at) {
            Some(w) if w.terminal() == t.terminal() => Ok(at + 1),
            _ => Err(DerivationError::LeafMismatch { at }),
        },
        Tree::Node(x, children) => {
            // An error child means this node was patched by recovery; say
            // so rather than blaming the (damaged) form for not being a
            // production.
            let mut epos = at;
            for c in children {
                if matches!(c, Tree::Error(_)) {
                    return Err(DerivationError::ErrorNode { at: epos });
                }
                epos += c.leaf_count();
            }
            let form = forest_roots(children);
            if !has_production(g, *x, &form) {
                return Err(DerivationError::NoSuchProduction { lhs: *x });
            }
            let mut pos = at;
            for c in children {
                pos = check_sym(g, c, word, pos)?;
            }
            Ok(pos)
        }
        Tree::Error(_) => Err(DerivationError::ErrorNode { at }),
    }
}

/// Does grammar `g` contain the production `x → form`?
pub fn has_production(g: &Grammar, x: NonTerminal, form: &[Symbol]) -> bool {
    g.alternatives(x)
        .iter()
        .any(|&pid| g.production(pid).rhs() == form)
}

/// Resolves which production a tree node instantiates: the unique
/// production of the node's nonterminal whose right-hand side equals the
/// children's root symbols. Returns `None` for leaves or nodes that do
/// not correspond to any production (e.g. hand-built trees).
///
/// Parse trees do not record production identities (paper Fig. 1's
/// `Node(X, f)` carries only the nonterminal), so semantic analyses that
/// dispatch on productions recover them with this lookup; it is O(#
/// alternatives of X).
///
/// # Examples
///
/// ```
/// use costar_grammar::{production_of_node, GrammarBuilder, Token, Tree};
/// let mut gb = GrammarBuilder::new();
/// gb.rule("S", &["a"]);
/// gb.rule("S", &["b"]);
/// let g = gb.start("S").build()?;
/// let b = g.symbols().lookup_terminal("b").unwrap();
/// let s = g.symbols().lookup_nonterminal("S").unwrap();
/// let node = Tree::Node(s, vec![Tree::Leaf(Token::new(b, "b"))]);
/// let pid = production_of_node(&g, &node).unwrap();
/// assert_eq!(g.render_production(pid), "S -> b");
/// # Ok::<(), costar_grammar::GrammarError>(())
/// ```
pub fn production_of_node(g: &Grammar, node: &Tree) -> Option<crate::ProdId> {
    let Tree::Node(x, children) = node else {
        return None;
    };
    let form = forest_roots(children);
    g.alternatives(*x)
        .iter()
        .copied()
        .find(|&pid| g.production(pid).rhs() == form)
}

/// Checks the *recognition* judgment `s → w` (the two-place variant of the
/// derivation relation, paper §5.1) for terminal-only sentential forms.
/// This cheap special case is used by invariant checkers; the general
/// recognizer is the Earley oracle in `costar-baselines`.
pub fn terminal_form_matches(form: &[Symbol], word: &[Token]) -> bool {
    form.len() == word.len()
        && form.iter().zip(word).all(|(&s, t)| match s {
            Symbol::T(a) => a == t.terminal(),
            Symbol::Nt(_) => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GrammarBuilder;
    use crate::token::tokens;

    /// Fig. 2 of the paper: S → A c | A d ; A → a A | b, word "abd".
    fn fig2() -> (Grammar, Vec<Token>, Tree) {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        let g = gb.start("S").build().unwrap();
        let mut tab = g.symbols().clone();
        let word = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let a_nt = g.symbols().lookup_nonterminal("A").unwrap();
        let tree = Tree::Node(
            s,
            vec![
                Tree::Node(
                    a_nt,
                    vec![
                        Tree::Leaf(word[0].clone()),
                        Tree::Node(a_nt, vec![Tree::Leaf(word[1].clone())]),
                    ],
                ),
                Tree::Leaf(word[2].clone()),
            ],
        );
        (g, word, tree)
    }

    #[test]
    fn fig2_tree_derives_abd() {
        let (g, word, tree) = fig2();
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        assert_eq!(check_tree(&g, s, &word, &tree), Ok(()));
    }

    #[test]
    fn wrong_root_detected() {
        let (g, word, tree) = fig2();
        let a_nt = g.symbols().lookup_nonterminal("A").unwrap();
        assert_eq!(
            check_tree(&g, a_nt, &word, &tree),
            Err(DerivationError::WrongRoot)
        );
    }

    #[test]
    fn yield_mismatch_detected() {
        let (g, word, tree) = fig2();
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        // Word longer than the tree's yield.
        let mut longer = word.clone();
        longer.push(word[0].clone());
        assert_eq!(
            check_tree(&g, s, &longer, &tree),
            Err(DerivationError::YieldMismatch)
        );
        // Word shorter than the yield: a leaf runs off the end.
        assert!(matches!(
            check_tree(&g, s, &word[..2], &tree),
            Err(DerivationError::LeafMismatch { .. })
        ));
    }

    #[test]
    fn bogus_production_detected() {
        let (g, word, _) = fig2();
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        // S -> a b d is not a production.
        let bogus = Tree::Node(
            s,
            vec![
                Tree::Leaf(word[0].clone()),
                Tree::Leaf(word[1].clone()),
                Tree::Leaf(word[2].clone()),
            ],
        );
        assert_eq!(
            check_tree(&g, s, &word, &bogus),
            Err(DerivationError::NoSuchProduction { lhs: s })
        );
    }

    #[test]
    fn leaf_terminal_mismatch_detected() {
        let (g, word, tree) = fig2();
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        // Swap the last token's terminal (d -> c position mismatch).
        let mut bad_word = word.clone();
        bad_word.swap(0, 2);
        assert!(matches!(
            check_tree(&g, s, &bad_word, &tree),
            Err(DerivationError::LeafMismatch { .. })
        ));
    }

    #[test]
    fn epsilon_node_checks() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "a"]);
        gb.rule("A", &[]);
        let g = gb.start("S").build().unwrap();
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let a_nt = g.symbols().lookup_nonterminal("A").unwrap();
        let a = g.symbols().lookup_terminal("a").unwrap();
        let word = vec![Token::new(a, "a")];
        let tree = Tree::Node(
            s,
            vec![Tree::Node(a_nt, vec![]), Tree::Leaf(word[0].clone())],
        );
        assert_eq!(check_tree(&g, s, &word, &tree), Ok(()));
    }

    #[test]
    fn terminal_form_matcher() {
        let (g, word, _) = fig2();
        let a = g.symbols().lookup_terminal("a").unwrap();
        let b = g.symbols().lookup_terminal("b").unwrap();
        let d = g.symbols().lookup_terminal("d").unwrap();
        let form: Vec<Symbol> = vec![a.into(), b.into(), d.into()];
        assert!(terminal_form_matches(&form, &word));
        assert!(!terminal_form_matches(&form[..2], &word));
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let with_nt: Vec<Symbol> = vec![a.into(), Symbol::Nt(s), d.into()];
        assert!(!terminal_form_matches(&with_nt, &word));
    }

    #[test]
    fn production_resolution() {
        let (g, word, tree) = fig2();
        // Root: S -> A d (the second S alternative).
        let pid = production_of_node(&g, &tree).unwrap();
        assert_eq!(g.render_production(pid), "S -> A d");
        // Leaves resolve to nothing.
        assert!(production_of_node(&g, &Tree::Leaf(word[0].clone())).is_none());
        // A node with a bogus shape resolves to nothing.
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let bogus = Tree::Node(s, vec![Tree::Leaf(word[0].clone())]);
        assert!(production_of_node(&g, &bogus).is_none());
    }

    #[test]
    fn error_nodes_fail_derivation() {
        use crate::tree::ErrorNode;
        let (g, word, _) = fig2();
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let a_nt = g.symbols().lookup_nonterminal("A").unwrap();
        // A recovered tree: the A subtree was abandoned and replaced by an
        // error node that swallowed the first two tokens.
        let recovered = Tree::Node(
            s,
            vec![
                Tree::Node(
                    a_nt,
                    vec![Tree::Error(Box::new(ErrorNode {
                        span: crate::Span::default(),
                        skipped: vec![word[0].clone(), word[1].clone()],
                        reason: "test".to_owned(),
                    }))],
                ),
                Tree::Leaf(word[2].clone()),
            ],
        );
        assert_eq!(
            check_tree(&g, s, &word, &recovered),
            Err(DerivationError::ErrorNode { at: 0 })
        );
        // A bare error node at the root is a WrongRoot (no root symbol).
        let bare = Tree::Error(Box::new(ErrorNode {
            span: crate::Span::default(),
            skipped: vec![],
            reason: "test".to_owned(),
        }));
        assert_eq!(
            check_tree(&g, s, &word, &bare),
            Err(DerivationError::WrongRoot)
        );
    }

    #[test]
    fn has_production_checks_exact_rhs() {
        let (g, _, _) = fig2();
        let s = g.symbols().lookup_nonterminal("S").unwrap();
        let a_nt = g.symbols().lookup_nonterminal("A").unwrap();
        let c = g.symbols().lookup_terminal("c").unwrap();
        assert!(has_production(&g, s, &[Symbol::Nt(a_nt), c.into()]));
        assert!(!has_production(&g, s, &[Symbol::Nt(a_nt)]));
    }
}
