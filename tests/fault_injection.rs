//! Deterministic fault injection against the resource-governed parser.
//!
//! The `faults` feature (enabled for this package's test targets through
//! the dev-dependency in the root `Cargo.toml`) compiles hooks into the
//! SLL cache that let a [`FaultPlan`] force evictions, poison entries,
//! and schedule panics at exact machine steps. These tests drive those
//! hooks against the robustness invariants this PR claims:
//!
//! 1. cache eviction — even a storm evicting on every intern — only ever
//!    costs re-prediction, never correctness (outcomes keep agreeing with
//!    the Earley oracle);
//! 2. poisoned cache entries are dropped at lookup and never served;
//! 3. a panic below [`Parser::parse`] is caught and surfaced as a typed
//!    [`ParseError::InvalidState`], and the parser stays usable;
//! 4. fuel exhaustion at any chosen step yields a clean
//!    [`ParseOutcome::Aborted`] with all instrumentation invariants
//!    intact up to the abort point;
//! 5. with the SLL cache capped at 64 entries, every non-aborted outcome
//!    still agrees with the oracle — including on truncated and
//!    oversized mutations of valid inputs.

use costar::instrument::{run_instrumented, run_instrumented_with};
use costar::{AbortReason, Budget, CachePolicy, FaultPlan, ParseError, ParseOutcome, Parser};
use costar_baselines::earley_recognize;
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::sampler::{DerivationSampler, SplitMix64};
use costar_grammar::{tokens, Grammar, GrammarBuilder, Token};

/// Paper Fig. 2: two-alternative decisions with unbounded lookahead.
fn fig2() -> Grammar {
    let mut gb = GrammarBuilder::new();
    gb.rule("S", &["A", "c"]);
    gb.rule("S", &["A", "d"]);
    gb.rule("A", &["a", "A"]);
    gb.rule("A", &["b"]);
    gb.start("S").build().unwrap()
}

/// The SLL-conflict grammar: deciding `X` under lost context forces an
/// SLL→LL failover, the most cache-hungry code path.
fn conflict() -> Grammar {
    let mut gb = GrammarBuilder::new();
    gb.rule("S", &["p", "C1"]);
    gb.rule("S", &["q", "C2"]);
    gb.rule("C1", &["X", "b"]);
    gb.rule("C2", &["X", "a", "b"]);
    gb.rule("X", &["a", "a"]);
    gb.rule("X", &["a"]);
    gb.start("S").build().unwrap()
}

fn word(g: &Grammar, names: &[&str]) -> Vec<Token> {
    let mut tab = g.symbols().clone();
    let pairs: Vec<(&str, &str)> = names.iter().map(|n| (*n, *n)).collect();
    tokens(&mut tab, &pairs)
}

/// A mixed corpus for a grammar: sampled valid words plus truncations and
/// junk-extended (oversized) mutations of each.
fn corpus(g: &Grammar) -> Vec<Vec<Token>> {
    let sampler = DerivationSampler::new(g);
    let mut rng = SplitMix64::new(0xC057A2);
    let mut words = Vec::new();
    for budget in 2..10 {
        if let Some((w, _)) = sampler.sample_word(&mut rng, budget) {
            // Truncated inputs: every proper prefix.
            for cut in 0..w.len() {
                words.push(w[..cut].to_vec());
            }
            // Oversized inputs: the word with trailing junk.
            let terms: Vec<_> = g.symbols().terminals().collect();
            let mut extended = w.clone();
            for i in 0..4 {
                let t = terms[i % terms.len()];
                extended.push(Token::new(t, g.symbols().terminal_name(t)));
            }
            words.push(extended);
            words.push(w);
        }
    }
    words
}

/// Asserts that `outcome` agrees with the Earley oracle for `w`, under a
/// description of the fault scenario for diagnostics.
fn assert_oracle_agreement(g: &Grammar, w: &[Token], outcome: &ParseOutcome, scenario: &str) {
    let in_language = earley_recognize(g, w);
    match outcome {
        ParseOutcome::Unique(_) | ParseOutcome::Ambig(_) => assert!(
            in_language,
            "{scenario}: parser accepted a word the oracle rejects (len {})",
            w.len()
        ),
        ParseOutcome::Reject(_) => assert!(
            !in_language,
            "{scenario}: parser rejected a word the oracle accepts (len {})",
            w.len()
        ),
        ParseOutcome::Error(e) => {
            panic!("{scenario}: unexpected parser error on injected faults: {e}")
        }
        ParseOutcome::Aborted(_) => {
            // Aborts carry no language verdict; nothing to check.
        }
    }
}

#[test]
fn eviction_storm_never_changes_outcomes() {
    for g in [fig2(), conflict()] {
        let mut parser = Parser::new(g.clone());
        parser.install_fault_plan(FaultPlan::none().evict_every(1));
        let mut stormed = 0u64;
        for w in corpus(&g) {
            let outcome = parser.parse(&w);
            assert_oracle_agreement(&g, &w, &outcome, "eviction storm");
            stormed += parser.cache_stats().evictions;
        }
        assert!(stormed > 0, "the storm plan must actually evict");
    }
}

#[test]
fn poisoned_entries_are_dropped_never_served() {
    for period in 1..=3u64 {
        for g in [fig2(), conflict()] {
            // Cache reuse keeps poisoned states resident across inputs, so
            // later parses actually look them up (a per-input cache would
            // discard them before any lookup could serve them).
            let mut parser = Parser::new(g.clone());
            parser.set_cache_policy(CachePolicy::Persistent);
            parser.install_fault_plan(FaultPlan::none().poison_every(period));
            for w in corpus(&g) {
                let outcome = parser.parse(&w);
                assert_oracle_agreement(&g, &w, &outcome, "poisoned cache");
            }
            if period == 1 {
                assert!(
                    parser.cache_stats().poison_drops > 0,
                    "poisoning every intern must drop entries"
                );
            }
        }
    }
}

#[test]
fn combined_eviction_and_poison_storm_under_tiny_cache() {
    let g = conflict();
    let mut parser = Parser::new(g.clone());
    parser.set_budget(Budget::unlimited().with_max_cache_entries(2));
    parser.install_fault_plan(FaultPlan::none().evict_every(2).poison_every(3));
    for w in corpus(&g) {
        let outcome = parser.parse(&w);
        assert_oracle_agreement(&g, &w, &outcome, "combined storm, 2-entry cache");
    }
}

#[test]
fn injected_panic_is_caught_as_typed_error() {
    let g = fig2();
    let w = word(&g, &["a", "a", "b", "d"]);
    for step in 0..8u64 {
        let mut parser = Parser::new(g.clone());
        parser.install_fault_plan(FaultPlan::none().panic_at_step(step));
        let ParseOutcome::Error(ParseError::InvalidState { reason }) = parser.parse(&w) else {
            panic!("step {step}: injected panic must surface as InvalidState");
        };
        assert!(
            reason.contains("injected fault"),
            "step {step}: panic message must be preserved, got {reason:?}"
        );
        // The boundary leaves the parser usable: disarm the plan and the
        // same input parses normally.
        parser.install_fault_plan(FaultPlan::none());
        assert!(parser.parse(&w).is_accept());
    }
}

#[test]
fn injected_panic_below_recovering_parse_is_caught() {
    // The recovering entry point shares the panic-safe boundary: a panic
    // scheduled at any machine step — including during a resynchronized
    // continuation on corrupt input — surfaces as a typed error with no
    // tree and no diagnostics, and the parser stays usable.
    let g = fig2();
    let valid = word(&g, &["a", "a", "b", "d"]);
    let corrupt = word(&g, &["a", "a", "d", "d"]);
    for w in [&valid, &corrupt] {
        for step in 0..8u64 {
            let mut parser = Parser::new(g.clone());
            parser.install_fault_plan(FaultPlan::none().panic_at_step(step));
            let recovered = parser.parse_recovering(w);
            let ParseOutcome::Error(ParseError::InvalidState { reason }) = &recovered.outcome
            else {
                panic!("step {step}: injected panic must surface as InvalidState");
            };
            assert!(
                reason.contains("injected fault"),
                "step {step}: panic message must be preserved, got {reason:?}"
            );
            assert!(recovered.tree().is_none(), "no partial tree after a panic");
            assert!(
                recovered.diagnostics.is_empty(),
                "no half-collected diagnostics after a panic"
            );
            parser.install_fault_plan(FaultPlan::none());
            assert!(parser.parse_recovering(&valid).is_clean());
        }
    }
}

#[test]
fn fuel_exhaustion_sweep_aborts_cleanly_at_every_step() {
    let g = fig2();
    let accepted = word(&g, &["a", "a", "b", "d"]);
    let rejected = word(&g, &["a", "a", "b", "b"]);
    for w in [accepted, rejected] {
        let (unlimited_outcome, report) = run_instrumented(&g, &GrammarAnalysis::compute(&g), &w)
            .expect("instrumentation invariants hold");
        // Sweep the fuel from 1 to well past what the parse needs. Every
        // run must keep the instrumented invariants (the Ok) and either
        // abort or reproduce the unlimited outcome — never error.
        let full = Budget::derived(&g, w.len())
            .max_steps()
            .expect("derived budgets always bound steps");
        for fuel in 1..=full.min(report.machine_steps * 4 + 8) {
            let budget = Budget::unlimited().with_max_steps(fuel);
            let (outcome, _) =
                run_instrumented_with(&g, &GrammarAnalysis::compute(&g), &w, &budget)
                    .expect("invariants must hold on every pre-abort step");
            match &outcome {
                ParseOutcome::Aborted(AbortReason::StepLimit { limit }) => {
                    assert_eq!(*limit, fuel);
                }
                ParseOutcome::Aborted(other) => {
                    panic!("fuel {fuel}: wrong abort reason {other}")
                }
                ParseOutcome::Error(e) => panic!("fuel {fuel}: unexpected error {e}"),
                resolved => assert_eq!(
                    resolved, &unlimited_outcome,
                    "fuel {fuel}: resolved outcome must match the unlimited run"
                ),
            }
        }
        // The derived budget is sufficient by construction.
        let budget = Budget::derived(&g, w.len());
        let (outcome, _) = run_instrumented_with(&g, &GrammarAnalysis::compute(&g), &w, &budget)
            .expect("invariants hold");
        assert_eq!(outcome, unlimited_outcome);
    }
}

#[test]
fn capped_cache_64_keeps_oracle_agreement() {
    // The acceptance-criterion configuration: SLL cache capped at 64
    // entries, fault hooks stirring the cache, oracle agreement required
    // on every non-aborted run.
    let budget = Budget::unlimited().with_max_cache_entries(64);
    for g in [fig2(), conflict()] {
        let an = GrammarAnalysis::compute(&g);
        for w in corpus(&g) {
            let (outcome, _) = run_instrumented_with(&g, &an, &w, &budget)
                .expect("instrumented invariants hold under the 64-entry cap");
            assert_oracle_agreement(&g, &w, &outcome, "64-entry cache cap");
        }
        // The same configuration through the public panic-safe API, with
        // faults active on top.
        let mut parser = Parser::new(g.clone());
        parser.set_budget(budget);
        parser.install_fault_plan(FaultPlan::none().evict_every(5).poison_every(7));
        for w in corpus(&g) {
            let outcome = parser.parse(&w);
            assert_oracle_agreement(&g, &w, &outcome, "64-entry cap + fault plan");
            assert!(parser.cache_stats().states <= 64);
        }
    }
}
