//! Property-based tests of the paper's theorems (§4, §5) over random
//! grammars and inputs.
//!
//! Each property is the executable counterpart of a Coq theorem:
//!
//! * Lemma 4.2 / Theorem "multistep terminates": every machine step
//!   strictly decreases the lexicographic measure — checked by
//!   `run_instrumented`, which also re-checks the `StacksWf_I` and
//!   visited-set invariants after every step (Lemmas 5.2, 5.10).
//! * Theorem 5.8 (error-free termination): on a *non-left-recursive*
//!   grammar the parser never returns `Error`, valid input or not.
//! * Theorems 5.1/5.6 (soundness): accepted trees satisfy the derivation
//!   relation.
//! * Theorems 5.11/5.12 (completeness): words sampled *from* the grammar
//!   are accepted.
//! * Lemma 5.10 (left-recursion diagnosis soundness): a
//!   `LeftRecursive(X)` error implies the static analysis agrees that `X`
//!   is left-recursive.

// Tests are exempt from the core's panic-freedom lints (clippy.toml).
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use costar::{instrument::run_instrumented, CachePolicy, ParseError, ParseOutcome, Parser};
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::sampler::{DerivationSampler, SplitMix64};
use costar_grammar::{check_tree, Grammar, GrammarBuilder, Symbol, Token};
use proptest::prelude::*;

/// A symbol in a generated right-hand side: terminal index or nonterminal
/// index (later taken modulo the respective universe size).
#[derive(Debug, Clone)]
enum SymSpec {
    T(usize),
    Nt(usize),
}

/// A random grammar description: every nonterminal `0..rules.len()` gets
/// at least one production, so the built grammar is always well-formed.
#[derive(Debug, Clone)]
struct GrammarSpec {
    num_terminals: usize,
    rules: Vec<Vec<Vec<SymSpec>>>,
}

impl GrammarSpec {
    fn build(&self) -> Grammar {
        let mut gb = GrammarBuilder::new();
        let nts: Vec<_> = (0..self.rules.len())
            .map(|i| gb.nonterminal(&format!("N{i}")))
            .collect();
        let ts: Vec<_> = (0..self.num_terminals)
            .map(|i| gb.terminal(&format!("t{i}")))
            .collect();
        for (i, alts) in self.rules.iter().enumerate() {
            for alt in alts {
                let rhs: Vec<Symbol> = alt
                    .iter()
                    .map(|s| match s {
                        SymSpec::T(k) => Symbol::T(ts[k % ts.len()]),
                        SymSpec::Nt(k) => Symbol::Nt(nts[k % nts.len()]),
                    })
                    .collect();
                gb.rule_syms(nts[i], rhs);
            }
        }
        gb.start_sym(nts[0]);
        gb.build().expect("spec grammars are well-formed")
    }
}

fn sym_spec() -> impl Strategy<Value = SymSpec> {
    prop_oneof![
        3 => (0usize..8).prop_map(SymSpec::T),
        2 => (0usize..8).prop_map(SymSpec::Nt),
    ]
}

fn grammar_spec() -> impl Strategy<Value = GrammarSpec> {
    (
        1usize..5,
        proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(sym_spec(), 0..3), 1..4),
            1..5,
        ),
    )
        .prop_map(|(num_terminals, rules)| GrammarSpec {
            num_terminals,
            rules,
        })
}

/// A random word over the grammar's terminal alphabet (mostly invalid —
/// exercising rejection paths).
fn random_word(g: &Grammar, picks: &[usize]) -> Vec<Token> {
    let terms: Vec<_> = g.symbols().terminals().collect();
    picks
        .iter()
        .map(|&k| {
            let t = terms[k % terms.len()];
            Token::new(t, g.symbols().terminal_name(t))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 4.2 + Lemma 5.2: instrumented runs never observe a
    /// non-decreasing measure or an invariant violation, on any grammar
    /// (left-recursive or not) and any input.
    #[test]
    fn measure_and_invariants_hold_on_arbitrary_input(
        spec in grammar_spec(),
        picks in proptest::collection::vec(0usize..8, 0..12),
    ) {
        let g = spec.build();
        let an = GrammarAnalysis::compute(&g);
        let word = random_word(&g, &picks);
        prop_assert!(run_instrumented(&g, &an, &word).is_ok());
    }

    /// Theorem 5.8: a non-left-recursive grammar never produces an Error
    /// outcome. Lemma 5.10 (contrapositive direction): when the dynamic
    /// check *does* fire, the static analysis confirms the nonterminal is
    /// left-recursive.
    #[test]
    fn error_free_termination_and_sound_lr_diagnosis(
        spec in grammar_spec(),
        picks in proptest::collection::vec(0usize..8, 0..12),
    ) {
        let g = spec.build();
        let an = GrammarAnalysis::compute(&g);
        let word = random_word(&g, &picks);
        let (outcome, _) = run_instrumented(&g, &an, &word).unwrap();
        match outcome {
            ParseOutcome::Error(ParseError::LeftRecursive(x)) => {
                prop_assert!(
                    an.left_recursion.is_left_recursive(x),
                    "dynamic LR diagnosis must be confirmed statically"
                );
            }
            ParseOutcome::Error(e) => {
                return Err(TestCaseError::fail(format!(
                    "InvalidState on a well-formed grammar: {e}"
                )));
            }
            _ => {
                if an.left_recursion.is_grammar_safe() {
                    // Fine: accept or reject, both allowed.
                }
            }
        }
    }

    /// Theorems 5.1/5.6 (soundness): every accepted tree satisfies the
    /// derivation relation for the input word.
    #[test]
    fn accepted_trees_are_correct_derivations(
        spec in grammar_spec(),
        picks in proptest::collection::vec(0usize..8, 0..12),
    ) {
        let g = spec.build();
        let mut parser = Parser::new(g);
        let word = random_word(parser.grammar(), &picks);
        if let Some(tree) = parser.parse(&word).tree() {
            prop_assert!(check_tree(parser.grammar(), parser.grammar().start(), &word, tree).is_ok());
        }
    }

    /// Theorems 5.11/5.12 (completeness): a word sampled from the grammar
    /// (i.e. one with a known parse tree) is always accepted — unless the
    /// grammar is left-recursive, in which case the theorems don't apply.
    #[test]
    fn derivable_words_are_accepted(
        spec in grammar_spec(),
        seed in any::<u64>(),
        budget in 2usize..9,
    ) {
        let g = spec.build();
        let an = GrammarAnalysis::compute(&g);
        if !an.left_recursion.is_grammar_safe() {
            return Ok(()); // theorem precondition not met
        }
        let sampler = DerivationSampler::new(&g);
        let mut rng = SplitMix64::new(seed);
        let Some((word, witness)) = sampler.sample_word(&mut rng, budget) else {
            return Ok(()); // start symbol unproductive: no derivable words
        };
        prop_assert!(check_tree(&g, g.start(), &word, &witness).is_ok());
        let mut parser = Parser::new(g);
        let outcome = parser.parse(&word);
        prop_assert!(
            outcome.is_accept(),
            "derivable word rejected: {outcome:?} (word length {})",
            word.len()
        );
    }

    /// Parsing is deterministic, and the cross-input cache-reuse extension
    /// does not change outcomes.
    #[test]
    fn cache_reuse_preserves_outcomes(
        spec in grammar_spec(),
        picks in proptest::collection::vec(0usize..8, 0..16),
        seed in any::<u64>(),
    ) {
        let g = spec.build();
        let mut fresh = Parser::new(g.clone());
        let mut warm = Parser::new(g.clone());
        warm.set_cache_policy(CachePolicy::Persistent);
        let sampler = DerivationSampler::new(&g);
        let mut rng = SplitMix64::new(seed);
        let mut words = vec![random_word(&g, &picks)];
        if let Some((w, _)) = sampler.sample_word(&mut rng, 8) {
            words.push(w);
        }
        // Interleave valid and invalid words so the warm cache carries
        // state across heterogeneous inputs.
        for _ in 0..2 {
            for w in &words {
                prop_assert_eq!(fresh.parse(w), warm.parse(w));
            }
        }
    }
}
