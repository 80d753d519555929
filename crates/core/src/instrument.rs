//! Instrumented execution: the dynamic counterpart of the paper's proofs.
//!
//! [`run_instrumented`] drives the machine one step at a time and, after
//! every step, checks that:
//!
//! 1. `meas(σ′) <₃ meas(σ)` — every step strictly decreases the
//!    termination measure (paper Lemma 4.2), which is what guarantees
//!    `multistep` terminates;
//! 2. the machine state still satisfies the structural invariants
//!    (`StacksWf_I` and the visited-set invariant — paper Lemmas 5.2 and
//!    5.10's supporting invariant).
//!
//! Production code calls [`crate::Parser::parse`], which skips all of
//! this; the instrumented runner exists for the test suites, the property
//! tests, and anyone studying the algorithm.

use crate::budget::Budget;
use crate::invariants::{check_all_with_input, InvariantViolation};
use crate::machine::{Machine, ParseOutcome, StepResult};
use crate::measure::{meas, Measure};
use crate::observe::{Event, MetricsObserver, ParseMetrics, ParseObserver};
use crate::prediction::cache::SllCache;
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{Grammar, Token};
use std::fmt;

/// Why an instrumented run aborted.
#[derive(Debug, Clone)]
pub enum InstrumentError {
    /// A step failed to decrease the termination measure — a
    /// counterexample to paper Lemma 4.2.
    MeasureNotDecreased {
        /// The measure before the offending step.
        before: Measure,
        /// The measure after it.
        after: Measure,
        /// Which step (0-based) failed.
        step: usize,
    },
    /// A machine-state invariant failed — a counterexample to the
    /// corresponding preservation lemma.
    Invariant {
        /// The violation.
        violation: InvariantViolation,
        /// Which step produced the bad state.
        step: usize,
    },
}

impl fmt::Display for InstrumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstrumentError::MeasureNotDecreased {
                before,
                after,
                step,
            } => write!(
                f,
                "step {step} did not decrease the measure: {before} -> {after}"
            ),
            InstrumentError::Invariant { violation, step } => {
                write!(f, "after step {step}: {violation}")
            }
        }
    }
}

impl std::error::Error for InstrumentError {}

/// Runs a full parse, checking the termination measure and the machine
/// invariants after every step.
///
/// # Errors
///
/// Returns [`InstrumentError`] if any step increases (or fails to
/// decrease) the measure, or leaves the machine in a state violating an
/// invariant. For a correct parser this never happens; the error type
/// exists so property tests can surface counterexamples.
pub fn run_instrumented(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    word: &[Token],
) -> Result<(ParseOutcome, ParseMetrics), InstrumentError> {
    run_instrumented_with(g, analysis, word, &Budget::unlimited())
}

/// [`run_instrumented`] under a resource [`Budget`]: cache capacity limits
/// are applied to the run's [`SllCache`], and a spent budget surfaces as
/// `Ok((ParseOutcome::Aborted(..), report))` — the instrumentation checks
/// still hold on every step taken before the abort, which is exactly the
/// property the fault-injection and adversarial-input suites rely on.
pub fn run_instrumented_with(
    g: &Grammar,
    analysis: &GrammarAnalysis,
    word: &[Token],
    budget: &Budget,
) -> Result<(ParseOutcome, ParseMetrics), InstrumentError> {
    let mut cache = SllCache::new();
    cache.set_capacity(budget.max_cache_entries(), budget.max_cache_bytes());
    let mut machine =
        Machine::with_budget(g, analysis, word, crate::PredictionMode::Adaptive, budget);
    let mut obs = MetricsObserver::new();
    let mut before = meas(g, machine.state(), word.len());
    let mut cont_steps = 0usize;

    let outcome = loop {
        match machine.step_observed(&mut cache, &mut obs) {
            StepResult::Cont => {
                cont_steps += 1;
                let after = meas(g, machine.state(), word.len());
                if after >= before {
                    return Err(InstrumentError::MeasureNotDecreased {
                        before,
                        after,
                        step: cont_steps - 1,
                    });
                }
                if let Err(violation) = check_all_with_input(g, machine.state(), word) {
                    return Err(InstrumentError::Invariant {
                        violation,
                        step: cont_steps - 1,
                    });
                }
                before = after;
            }
            StepResult::Accept(tree) => {
                break if machine.state().unique {
                    ParseOutcome::Unique(tree)
                } else {
                    ParseOutcome::Ambig(tree)
                };
            }
            StepResult::Reject(r) => break ParseOutcome::Reject(r),
            StepResult::Error(e) => break ParseOutcome::Error(e),
            StepResult::Abort(r) => break ParseOutcome::Aborted(r),
        }
    };
    obs.on_event(Event::Finish {
        meter_steps: machine.steps_taken(),
    });
    let mut metrics = obs.into_metrics();
    metrics.tokens = word.len();
    Ok((outcome, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use costar_grammar::{tokens, GrammarBuilder};

    fn instrumented(
        build: impl FnOnce(&mut GrammarBuilder),
        word: &[(&str, &str)],
    ) -> (ParseOutcome, ParseMetrics) {
        let mut gb = GrammarBuilder::new();
        build(&mut gb);
        let g = gb.build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let mut tab = g.symbols().clone();
        let w = tokens(&mut tab, word);
        run_instrumented(&g, &an, &w).expect("instrumentation checks must pass")
    }

    #[test]
    fn fig2_run_reports_operation_counts() {
        let (outcome, report) = instrumented(
            |gb| {
                gb.rule("S", &["A", "c"]);
                gb.rule("S", &["A", "d"]);
                gb.rule("A", &["a", "A"]);
                gb.rule("A", &["b"]);
                gb.start("S");
            },
            &[("a", "a"), ("b", "b"), ("d", "d")],
        );
        assert!(outcome.is_accept());
        assert_eq!(report.consumes, 3);
        assert_eq!(report.pushes, 3); // S, A, A
        assert_eq!(report.returns, 3);
        // 9 continuing steps plus the final accepting step, each one
        // admitted by the meter.
        assert_eq!(report.machine_steps, 10);
        assert_eq!(report.max_stack_height, 4);
        assert!(report.reconciles());
    }

    #[test]
    fn measure_decreases_on_nullable_heavy_grammar() {
        // Deep nullable chains stress the stackScore argument: pushes
        // without consumes must still decrease the measure.
        let (outcome, report) = instrumented(
            |gb| {
                gb.rule("S", &["A", "B", "C", "x"]);
                gb.rule("A", &[]);
                gb.rule("B", &["A", "A"]);
                gb.rule("C", &["B", "B", "B"]);
                gb.start("S");
            },
            &[("x", "x")],
        );
        assert!(outcome.is_accept());
        assert!(report.pushes > report.consumes);
    }

    #[test]
    fn rejecting_runs_also_check_cleanly() {
        let (outcome, _) = instrumented(
            |gb| {
                gb.rule("S", &["a", "S"]);
                gb.rule("S", &["b"]);
                gb.start("S");
            },
            &[("a", "a"), ("a", "a"), ("c", "c")],
        );
        assert!(matches!(outcome, ParseOutcome::Reject(_)));
    }

    #[test]
    fn error_outcome_surfaces_left_recursion() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["E"]);
        gb.rule("E", &["E", "x"]);
        let g = gb.start("S").build().unwrap();
        let an = GrammarAnalysis::compute(&g);
        let mut tab = g.symbols().clone();
        let w = tokens(&mut tab, &[("x", "x")]);
        let (outcome, _) = run_instrumented(&g, &an, &w).unwrap();
        assert!(matches!(
            outcome,
            ParseOutcome::Error(crate::ParseError::LeftRecursive(_))
        ));
    }

    #[test]
    fn deep_recursion_keeps_measure_strict() {
        // A long right-recursive chain: many consume/push/return cycles.
        let word: Vec<(&str, &str)> = std::iter::repeat_n(("a", "a"), 64)
            .chain(std::iter::once(("b", "b")))
            .collect();
        let (outcome, report) = instrumented(
            |gb| {
                gb.rule("S", &["a", "S"]);
                gb.rule("S", &["b"]);
                gb.start("S");
            },
            &word,
        );
        assert!(outcome.is_accept());
        assert_eq!(report.consumes, 65);
        assert!(report.max_stack_height > 60);
    }
}
