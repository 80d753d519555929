//! Adversarial grammars under tight budgets: abort-or-accept, never error.
//!
//! Each scenario here is built to stress one resource axis — deep right
//! nesting (stack depth and returns), wide alternations (prediction
//! fan-out), and SLL-conflict failover storms (cache churn plus double
//! simulation). Every run goes through the instrumented runner with a
//! deliberately tight budget, and the invariant under test is uniform:
//! the outcome is a *resolved* verdict (accept/reject, matching the
//! unlimited run) or a clean [`ParseOutcome::Aborted`] — never a
//! [`ParseOutcome::Error`], never a panic, and never a measure or
//! machine-invariant violation on the steps taken before an abort.

use costar::instrument::{run_instrumented, run_instrumented_with};
use costar::{AbortReason, Budget, ParseOutcome, Parser};
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{tokens, Grammar, GrammarBuilder, Token};
use std::time::{Duration, Instant};

fn word_of(g: &Grammar, names: &[&str]) -> Vec<Token> {
    let mut tab = g.symbols().clone();
    let pairs: Vec<(&str, &str)> = names.iter().map(|n| (*n, *n)).collect();
    tokens(&mut tab, &pairs)
}

/// Runs one word under a sweep of step budgets and asserts the
/// abort-or-resolve invariant against the unlimited outcome.
fn assert_abort_or_resolve(g: &Grammar, w: &[Token], fuel_sweep: impl Iterator<Item = u64>) {
    let an = GrammarAnalysis::compute(g);
    let (unlimited, _) = run_instrumented(g, &an, w).expect("instrumented invariants hold");
    assert!(
        !matches!(unlimited, ParseOutcome::Error(_)),
        "adversarial grammars here are still non-left-recursive"
    );
    for fuel in fuel_sweep {
        let budget = Budget::unlimited().with_max_steps(fuel);
        let (outcome, report) = run_instrumented_with(g, &an, w, &budget)
            .expect("invariants hold on every pre-abort step");
        match &outcome {
            ParseOutcome::Aborted(AbortReason::StepLimit { .. }) => {
                assert!(
                    report.machine_steps <= fuel,
                    "fuel {fuel}: machine overran its budget ({} steps)",
                    report.machine_steps
                );
            }
            ParseOutcome::Aborted(other) => panic!("fuel {fuel}: unexpected abort {other}"),
            ParseOutcome::Error(e) => panic!("fuel {fuel}: budget produced an error: {e}"),
            resolved => assert_eq!(resolved, &unlimited, "fuel {fuel}: outcome changed"),
        }
    }
}

#[test]
fn deep_right_nesting_aborts_or_accepts() {
    // S -> a S | b : parsing a^N b builds an N-deep suffix stack.
    let mut gb = GrammarBuilder::new();
    gb.rule("S", &["a", "S"]);
    gb.rule("S", &["b"]);
    let g = gb.start("S").build().unwrap();
    for n in [8usize, 64, 256] {
        let mut names = vec!["a"; n];
        names.push("b");
        let w = word_of(&g, &names);
        // Sparse sweep over the interesting range: starving, partial, and
        // nearly-enough budgets.
        let sweep = (0..12).map(|i| 1 + (i * (3 * n as u64 + 8)) / 11);
        assert_abort_or_resolve(&g, &w, sweep);
    }
}

#[test]
fn deep_nesting_respects_stack_depth_limit() {
    let mut gb = GrammarBuilder::new();
    gb.rule("S", &["a", "S"]);
    gb.rule("S", &["b"]);
    let g = gb.start("S").build().unwrap();
    let an = GrammarAnalysis::compute(&g);
    let mut names = vec!["a"; 128];
    names.push("b");
    let w = word_of(&g, &names);
    for limit in [2usize, 8, 32] {
        let budget = Budget::unlimited().with_max_stack_depth(limit);
        let (outcome, report) =
            run_instrumented_with(&g, &an, &w, &budget).expect("invariants hold");
        let ParseOutcome::Aborted(AbortReason::StackDepth { depth, limit: l }) = outcome else {
            panic!("depth limit {limit}: expected a stack-depth abort, got {outcome:?}");
        };
        assert_eq!(l, limit);
        assert!(depth > limit);
        assert!(
            report.max_stack_height <= limit,
            "depth limit {limit}: stack grew to {} before the abort",
            report.max_stack_height
        );
    }
}

#[test]
fn wide_alternation_fanout_aborts_or_accepts() {
    // One decision with 16 alternatives, each needing full lookahead to
    // the end of the word to discriminate: prediction fan-out is wide and
    // lookahead-hungry at once.
    let mut gb = GrammarBuilder::new();
    for i in 0..16 {
        let tail = format!("t{i}");
        gb.rule("S", &["x", "M", tail.as_str()]);
    }
    gb.rule("M", &["m", "M"]);
    gb.rule("M", &[]);
    let g = gb.start("S").build().unwrap();

    let mut names = vec!["x"];
    names.extend(std::iter::repeat_n("m", 24));
    names.push("t7");
    let w = word_of(&g, &names);
    assert_abort_or_resolve(&g, &w, (0..16).map(|i| 1 + i * 40));

    // And an invalid word (wrong tail) under the same sweeps.
    let mut names = vec!["x"];
    names.extend(std::iter::repeat_n("m", 24));
    let w = word_of(&g, &names);
    assert_abort_or_resolve(&g, &w, (0..16).map(|i| 1 + i * 40));
}

#[test]
fn failover_storm_under_tiny_cache_aborts_or_accepts() {
    // Every `X` decision SLL-conflicts and fails over to LL; chaining
    // many of them in one input makes prediction re-run constantly while
    // a 2-entry cache cap forces perpetual eviction.
    let mut gb = GrammarBuilder::new();
    gb.rule("S", &["U", "S"]);
    gb.rule("S", &["U"]);
    gb.rule("U", &["p", "C1"]);
    gb.rule("U", &["q", "C2"]);
    gb.rule("C1", &["X", "b"]);
    gb.rule("C2", &["X", "a", "b"]);
    gb.rule("X", &["a", "a"]);
    gb.rule("X", &["a"]);
    let g = gb.start("S").build().unwrap();
    let an = GrammarAnalysis::compute(&g);

    let unit = ["q", "a", "a", "b"];
    for repeats in [1usize, 4, 12] {
        let names: Vec<&str> = unit.iter().cycle().take(4 * repeats).copied().collect();
        let w = word_of(&g, &names);
        let (unlimited, report) = run_instrumented(&g, &an, &w).expect("invariants hold");
        assert!(unlimited.is_accept(), "storm word is in the language");

        let cap = Budget::unlimited().with_max_cache_entries(2);
        let (capped, _) = run_instrumented_with(&g, &an, &w, &cap).expect("invariants hold");
        assert_eq!(capped, unlimited, "cache cap must not change the verdict");

        let sweep = (0..10).map(|i| 1 + (i * 2 * report.machine_steps) / 9);
        assert_abort_or_resolve(&g, &w, sweep);
    }
}

#[test]
fn zero_deadline_aborts_immediately_and_consistently() {
    let mut gb = GrammarBuilder::new();
    gb.rule("S", &["a", "S"]);
    gb.rule("S", &["b"]);
    let g = gb.start("S").build().unwrap();
    let mut names = vec!["a"; 64];
    names.push("b");
    let mut parser = Parser::new(g.clone());
    parser.set_budget(Budget::unlimited().with_deadline(Duration::ZERO));
    let w = word_of(&g, &names);
    let ParseOutcome::Aborted(AbortReason::DeadlineExpired { budget_ms: 0 }) = parser.parse(&w)
    else {
        panic!("an already-expired deadline must abort on the first step");
    };
    // A generous deadline resolves the same input.
    parser.set_budget(Budget::unlimited().with_deadline(Duration::from_secs(600)));
    assert!(parser.parse(&w).is_accept());
}

#[test]
fn deadline_fires_inside_a_nested_dot_prediction() {
    // `digraph g { subgraph {`×14 … `}`: each nesting level opens another
    // undecided `stmt` inside the lookahead of the one above, so one
    // prediction's closure work roughly doubles per level (millions of
    // worklist items at n = 14). Closure charges no fuel; only its own
    // clock reads can stop it, and they must, with the typed abort.
    let lang = costar_langs::dot::language();
    let n = 14;
    let src = format!(
        "digraph g {{ {}{} }}",
        "subgraph { ".repeat(n),
        "}".repeat(n)
    );
    let word = lang.tokenize(&src).expect("nested subgraphs are valid DOT");
    let mut parser = Parser::with_analysis(lang.grammar().clone(), lang.analysis());
    parser.set_budget(Budget::unlimited().with_deadline(Duration::from_millis(50)));
    let started = Instant::now();
    let outcome = parser.parse(&word);
    let elapsed = started.elapsed();
    assert!(
        matches!(
            outcome,
            ParseOutcome::Aborted(AbortReason::DeadlineExpired { budget_ms: 50 })
        ),
        "expected a deadline abort, got {outcome:?}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "a 50 ms deadline took {elapsed:?} to fire"
    );
}
