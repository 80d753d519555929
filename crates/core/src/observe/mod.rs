//! Parse-time observability: a zero-cost-when-disabled event layer.
//!
//! The paper's empirical claims (§6: linear-time behavior, SLL almost
//! always suffices, the cache is what makes ALL(*) fast) are statements
//! about *where the work goes*. This module provides the vantage point:
//! one [`Event`] enum — the only schema for parse events — delivered to
//! a [`ParseObserver`] on every machine step, prediction entry/exit,
//! decision, lookahead token, cache lookup, closure iteration, and abort.
//!
//! Observers are threaded through the machine and the prediction engine
//! as a **monomorphized generic parameter**, never a trait object. The
//! default [`NullObserver`] keeps `on_event`'s empty default body, so the
//! compiler inlines and eliminates the entire layer from the unobserved
//! path — `Machine::run` and `Parser::parse` compile to the same code as
//! before the layer existed (the `ablation_observer_overhead` criterion
//! bench pins this claim). Each call site passes a constant variant, so
//! an inlined `on_event` folds its `match` to the one arm that applies.
//!
//! Two concrete observers ship with the crate:
//!
//! * [`MetricsObserver`] aggregates counters and per-phase latency
//!   histograms into a serializable [`ParseMetrics`];
//! * [`TraceObserver`] keeps a bounded ring buffer of the structural
//!   events ([`TraceEvent`]s) for post-mortem dumps on abort/reject.
//!
//! ## Event timing and the reconciliation invariant
//!
//! [`Event::MachineStep`] fires immediately after the machine's
//! successful `Meter::charge(1)`, and [`Event::Lookahead`] immediately
//! after each successful prediction charge. A failed charge fires
//! neither (and, per the `Meter::charge` contract, does not count toward
//! `steps_taken()`). Consequently, for every parse:
//!
//! ```text
//! machine_steps + prediction_steps == Meter::steps_taken()
//! ```
//!
//! — the observability layer and the budget layer can never disagree.
//! A property test (`tests/observer_properties.rs`) enforces this for
//! arbitrary grammar/input pairs, including aborted parses.

#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]
mod metrics;
mod trace;

pub use metrics::{Histogram, MetricsObserver, ParseMetrics};
pub use trace::{TraceEvent, TraceObserver};

use crate::budget::AbortReason;
use costar_grammar::NonTerminal;

/// The three machine operations (paper §3.3), as classified by the step
/// that performed them. The final accept/reject/error step performs none
/// of these, so per-op counts sum to *at most* the machine step count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineOp {
    /// A push operation (a prediction decision was made).
    Push,
    /// A consume operation (one input token matched).
    Consume,
    /// A return operation (a completed nonterminal popped).
    Return,
}

/// Which prediction engine an event refers to (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictPhase {
    /// Cached, context-insensitive SLL simulation.
    Sll,
    /// Precise LL simulation over the machine's real stack.
    Ll,
}

/// How a prediction phase resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictOutcome {
    /// A single alternative survived.
    Unique,
    /// Several alternatives survived to end of input (for SLL this is a
    /// conflict that triggers LL failover; for LL it is true ambiguity).
    Ambig,
    /// No alternative survived.
    Reject,
    /// Prediction hit an inconsistent state or left recursion.
    Error,
    /// The budget ran out mid-prediction.
    Abort,
}

/// Which path a decision took through `adaptivePredict` (the shape of
/// ANTLR 4's per-decision `DecisionInfo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionPath {
    /// The nonterminal has one alternative: no prediction ran.
    SingleAlternative,
    /// Dispatched through the static LL(1) lookahead map: no simulation,
    /// no cache traffic, no prediction fuel.
    Static,
    /// Simulated: an SLL phase, and an LL phase if SLL conflicted.
    Simulated,
}

/// One parse event: the single schema every observer receives.
///
/// Events marked *post-charge* fire only after the corresponding
/// `Meter::charge` succeeded; see the module docs for the reconciliation
/// invariant this buys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// One machine step was admitted (*post-charge*), at input position
    /// `cursor` with suffix-stack height `stack_height` before the
    /// operation runs.
    MachineStep {
        /// Input position.
        cursor: usize,
        /// Suffix-stack height.
        stack_height: usize,
    },
    /// A machine step completed operation `op` (fires only for steps that
    /// continue the parse, not for the final accept/reject/error step).
    Op {
        /// Which operation.
        op: MachineOp,
        /// Input position before the operation.
        cursor: usize,
        /// Suffix-stack height before the operation.
        stack_height: usize,
    },
    /// A prediction phase began for decision nonterminal `x`.
    PredictStart {
        /// The decision nonterminal.
        x: NonTerminal,
        /// SLL or LL.
        phase: PredictPhase,
    },
    /// One lookahead token was admitted inside a prediction phase
    /// (*post-charge*).
    Lookahead {
        /// SLL or LL.
        phase: PredictPhase,
    },
    /// A prediction phase ended. An SLL phase ending `Unique`, `Reject`
    /// or `Error` is a decision committed by SLL without failover.
    PredictEnd {
        /// The decision nonterminal.
        x: NonTerminal,
        /// SLL or LL.
        phase: PredictPhase,
        /// How it resolved.
        outcome: PredictOutcome,
    },
    /// `adaptivePredict` took a decision for `x` along `path`.
    Decision {
        /// The decision nonterminal.
        x: NonTerminal,
        /// Single-alternative, static or simulated.
        path: DecisionPath,
    },
    /// An SLL conflict triggered failover to LL prediction (§3.4).
    Failover {
        /// The decision nonterminal.
        x: NonTerminal,
    },
    /// An SLL decision with a finite certified lookahead bound (the
    /// `costar-cert-v1` audit certificate) resolved; `ok` reports whether
    /// the observed lookahead stayed within the certified bound. A `false`
    /// here means the certificate *understated* the bound — the one claim
    /// static replay cannot refute (sufficiency is universal over inputs),
    /// checked dynamically instead. Fires only at committed SLL
    /// resolutions (unique or reject), never on conflicts that fail over.
    CertificateCheck {
        /// The decision nonterminal.
        x: NonTerminal,
        /// Whether the lookahead stayed within the bound.
        ok: bool,
    },
    /// A DFA transition lookup is about to run.
    CacheLookup,
    /// The transition lookup was answered from the cache.
    CacheHit,
    /// The transition lookup missed; a move+closure computation follows.
    CacheMiss,
    /// Interning evicted `evicted` states to stay under the capacity caps.
    CacheEvictions {
        /// Number of states evicted.
        evicted: u64,
    },
    /// One closure worklist item was processed (a simulated push, return,
    /// or stable-config emission — the inner loop of prediction).
    ClosureStep,
    /// The budget ran out. Fires at the site of the failed charge (or
    /// depth check), before the abort propagates outward.
    Abort {
        /// Why.
        reason: AbortReason,
    },
    /// A recovering parse ([`crate::Parser::parse_recovering`]) caught a
    /// rejection at input position `cursor` and is about to resynchronize.
    /// The plain parse path never fires this.
    Recovery {
        /// Input position of the rejection.
        cursor: usize,
    },
    /// Panic-mode resynchronization skipped the token at `cursor` (one
    /// event per skipped token).
    ResyncSkip {
        /// Input position of the skipped token.
        cursor: usize,
    },
    /// An accepting or rejecting parse finished and its metered fuel was
    /// compared against the grammar's certified cost bound
    /// (`costar-cost-v1`, see `CostModel::bound_for`): `predicted_steps`
    /// is the bound for this input's length and `within_bound` whether
    /// `Meter::steps_taken() ≤ predicted_steps` held. A `false` means the
    /// certificate *understated* the cost — the deflation failure mode
    /// [`Event::CertificateCheck`] catches for lookahead bounds. Never
    /// fires for errored or aborted parses (the bound's claim covers
    /// accepting and rejecting parses only), and never after a recovery
    /// (resync work is outside the certified budget). Fires just before
    /// [`Event::Finish`].
    CostCheck {
        /// The certified bound for this input's length.
        predicted_steps: u64,
        /// Whether the metered fuel stayed within it.
        within_bound: bool,
    },
    /// An edit session spliced fresh tokens into its cached token vector
    /// ([`crate::Parser::reparse_after_edit`]). Fires once per applied
    /// edit, before any re-parse events; batch parses never fire it.
    IncrementalRelex {
        /// Tokens produced by re-scanning the damaged region.
        tokens_relexed: u64,
        /// Tokens carried over from the previous lex (prefix + rebased
        /// suffix).
        tokens_reused: u64,
        /// Wall-clock microseconds the re-lex took.
        micros: u64,
    },
    /// The parse finished with `meter_steps` total fuel charged —
    /// machine steps plus prediction lookahead.
    Finish {
        /// `Meter::steps_taken()` at the end of the parse.
        meter_steps: u64,
    },
}

/// Receives the parse's [`Event`]s. The one method has an empty default
/// body, so an observer that overrides nothing — [`NullObserver`] —
/// costs nothing.
pub trait ParseObserver {
    /// One event happened.
    #[inline]
    fn on_event(&mut self, _e: Event) {}
}

/// The do-nothing observer: `on_event` keeps its empty default body, so
/// the monomorphized parse loop contains no observer code at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl ParseObserver for NullObserver {}

/// A pair of observers receiving every event, in order. Composes e.g. a
/// [`MetricsObserver`] with a [`TraceObserver`] for one parse.
impl<A: ParseObserver, B: ParseObserver> ParseObserver for (A, B) {
    #[inline(always)]
    fn on_event(&mut self, e: Event) {
        self.0.on_event(e);
        self.1.on_event(e);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting(u64);
    impl ParseObserver for Counting {
        fn on_event(&mut self, e: Event) {
            if matches!(e, Event::MachineStep { .. } | Event::Lookahead { .. }) {
                self.0 += 1;
            }
        }
    }

    #[test]
    fn pair_observer_forwards_to_both() {
        let mut pair = (Counting::default(), Counting::default());
        pair.on_event(Event::MachineStep {
            cursor: 0,
            stack_height: 1,
        });
        pair.on_event(Event::Lookahead {
            phase: PredictPhase::Sll,
        });
        pair.on_event(Event::CacheHit); // not counted
        assert_eq!(pair.0 .0, 2);
        assert_eq!(pair.1 .0, 2);
    }

    #[test]
    fn null_observer_accepts_every_event() {
        let mut null = NullObserver;
        null.on_event(Event::MachineStep {
            cursor: 0,
            stack_height: 0,
        });
        null.on_event(Event::Op {
            op: MachineOp::Consume,
            cursor: 0,
            stack_height: 1,
        });
        null.on_event(Event::Abort {
            reason: AbortReason::StepLimit { limit: 1 },
        });
        null.on_event(Event::Finish { meter_steps: 0 });
    }
}
