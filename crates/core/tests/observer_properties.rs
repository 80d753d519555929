//! Property tests for the observability layer: over random grammars,
//! random words, and randomly tight budgets, the metrics an observer
//! collects must reconcile *exactly* with the budget meter and the
//! prediction cache's own counters.
//!
//! These are the cross-layer accounting invariants the `--stats=json`
//! surface relies on:
//!
//! * `machine_steps + prediction_steps == Meter::steps_taken()` — every
//!   fuel unit the meter admitted is attributed to exactly one observer
//!   event, and nothing is double-counted (this is what the
//!   `Meter::charge` ordering fix pins down on the abort paths);
//! * `cache_hits + cache_misses == cache_lookups`, and both mirror the
//!   [`SllCache`](costar::SllCache)'s own counters;
//! * every decision of a parse that did not abort took exactly one path:
//!   `decisions == static_fast_path_hits + sll_resolved + failovers`.

// Tests are exempt from the core's panic-freedom lints (clippy.toml).
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use costar::{Budget, MetricsObserver, ParseOutcome, Parser};
use costar_grammar::{Grammar, GrammarBuilder, Symbol, Token};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum SymSpec {
    T(usize),
    Nt(usize),
}

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

/// One measured parse, with the invariants asserted.
fn check_reconciliation(parser: &mut Parser, word: &[Token]) -> Result<(), TestCaseError> {
    let (outcome, m) = parser.parse_with_metrics(word);
    // Panics are converted to Error by the panic-safe boundary and would
    // leave the metrics torn; they also indicate a real bug, so fail loud.
    if let ParseOutcome::Error(e) = &outcome {
        prop_assert!(
            !e.to_string().contains("panic during parse"),
            "parser panicked: {e}"
        );
    }
    prop_assert!(
        m.reconciles(),
        "metrics must reconcile with the meter: {m:?} (outcome {outcome:?})"
    );
    let cs = parser.cache_stats();
    prop_assert_eq!(m.cache_hits, cs.hits, "cache hits diverge");
    prop_assert_eq!(m.cache_misses, cs.misses, "cache misses diverge");
    prop_assert_eq!(m.cache_evictions, cs.evictions, "evictions diverge");
    if !matches!(outcome, ParseOutcome::Aborted(_)) {
        prop_assert_eq!(
            m.decisions,
            m.static_fast_path_hits + m.sll_resolved + m.failovers,
            "a decision took no path, or two: {:?}",
            m
        );
    }
    // An abort is recorded iff the outcome is Aborted, with the same reason.
    match &outcome {
        ParseOutcome::Aborted(r) => prop_assert_eq!(m.abort, Some(*r)),
        _ => prop_assert_eq!(m.abort, None),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Unlimited budget: metrics reconcile on accept, reject, and error
    /// outcomes alike.
    #[test]
    fn metrics_reconcile_on_arbitrary_input(
        spec in grammar_spec(),
        picks in proptest::collection::vec(0usize..8, 0..12),
    ) {
        let g = spec.build();
        let word = random_word(&g, &picks);
        let mut parser = Parser::new(g);
        check_reconciliation(&mut parser, &word)?;
    }

    /// Tight step budgets: the abort paths (machine charge, prediction
    /// charge, depth check) must not lose or double-count a step. This is
    /// the property the `Meter::charge` reordering fix protects.
    #[test]
    fn metrics_reconcile_under_tight_budgets(
        spec in grammar_spec(),
        picks in proptest::collection::vec(0usize..8, 0..12),
        fuel in 0u64..24,
    ) {
        let g = spec.build();
        let word = random_word(&g, &picks);
        let mut parser = Parser::new(g);
        parser.set_budget(Budget::unlimited().with_max_steps(fuel));
        check_reconciliation(&mut parser, &word)?;
        // The meter never over-spends its fuel.
        let (_, m) = parser.parse_with_metrics(&word);
        prop_assert!(m.meter_steps <= fuel, "meter overspent: {} > {fuel}", m.meter_steps);
    }

    /// Cache caps (including the cap-0 "cache off" mode) change
    /// performance, never accounting consistency.
    #[test]
    fn metrics_reconcile_under_cache_pressure(
        spec in grammar_spec(),
        picks in proptest::collection::vec(0usize..8, 0..12),
        cap in 0usize..4,
    ) {
        let g = spec.build();
        let word = random_word(&g, &picks);
        let mut parser = Parser::new(g);
        parser.set_budget(Budget::unlimited().with_max_cache_entries(cap));
        check_reconciliation(&mut parser, &word)?;
        if cap == 0 {
            let (_, m) = parser.parse_with_metrics(&word);
            prop_assert_eq!(m.cache_hits, 0, "a disabled cache can never hit");
            prop_assert_eq!(m.cache_evictions, 0, "cache-off must not evict");
        }
    }

    /// The observed parse is the same parse: running with a
    /// [`MetricsObserver`] yields the identical outcome to the unobserved
    /// run (observers have no semantic effect).
    #[test]
    fn observation_does_not_change_outcomes(
        spec in grammar_spec(),
        picks in proptest::collection::vec(0usize..8, 0..12),
    ) {
        let g = spec.build();
        let word = random_word(&g, &picks);
        let mut plain = Parser::new(g.clone());
        let mut observed = Parser::new(g);
        let baseline = plain.parse(&word);
        let mut obs = MetricsObserver::new();
        let outcome = observed.run(&word, false, &mut obs).outcome;
        prop_assert_eq!(baseline, outcome);
    }
}
