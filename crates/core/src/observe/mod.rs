//! Parse-time observability: a zero-cost-when-disabled hook layer.
//!
//! The paper's empirical claims (§6: linear-time behavior, SLL almost
//! always suffices, the cache is what makes ALL(*) fast) are statements
//! about *where the work goes*. This module provides the vantage point:
//! a [`ParseObserver`] trait whose hooks fire on every machine step,
//! prediction entry/exit, lookahead token, cache lookup, closure
//! iteration, and abort.
//!
//! Observers are threaded through the machine and the prediction engine
//! as a **monomorphized generic parameter**, never a trait object. The
//! default [`NullObserver`] implements every hook with the empty default
//! body, so the compiler inlines and eliminates the entire layer from the
//! unobserved path — `Machine::run` and `Parser::parse` compile to the
//! same code as before the layer existed (the `ablation_observer_overhead`
//! criterion bench pins this claim).
//!
//! Two concrete observers ship with the crate:
//!
//! * [`MetricsObserver`] aggregates counters and per-phase latency
//!   histograms into a serializable [`ParseMetrics`];
//! * [`TraceObserver`] keeps a bounded ring buffer of structured
//!   [`TraceEvent`]s for post-mortem dumps on abort/reject.
//!
//! ## Hook timing and the reconciliation invariant
//!
//! [`ParseObserver::on_machine_step`] fires immediately after the
//! machine's successful `Meter::charge(1)`, and
//! [`ParseObserver::on_lookahead`] immediately after each successful
//! prediction charge. A failed charge fires neither (and, per the
//! `Meter::charge` contract, does not count toward `steps_taken()`).
//! Consequently, for every parse:
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
pub use trace::{TraceEvent, TraceEventKind, TraceObserver};

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

/// Which prediction engine a hook refers to (paper §3.4).
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

/// Hooks into the parse. All methods have empty default bodies, so an
/// implementor only overrides the events it cares about and an observer
/// that overrides nothing — [`NullObserver`] — costs nothing.
///
/// Hooks marked *post-charge* fire only after the corresponding
/// `Meter::charge` succeeded; see the module docs for the reconciliation
/// invariant this buys.
pub trait ParseObserver {
    /// One machine step was admitted (*post-charge*). `cursor` is the
    /// input position and `stack_height` the suffix-stack height before
    /// the operation runs.
    #[inline]
    fn on_machine_step(&mut self, _cursor: usize, _stack_height: usize) {}

    /// A machine step completed operation `op` (fires only for steps that
    /// continue the parse, not for the final accept/reject/error step).
    #[inline]
    fn on_op(&mut self, _op: MachineOp, _cursor: usize, _stack_height: usize) {}

    /// A prediction phase began for decision nonterminal `x`.
    #[inline]
    fn on_predict_start(&mut self, _x: NonTerminal, _phase: PredictPhase) {}

    /// One lookahead token was admitted inside a prediction phase
    /// (*post-charge*).
    #[inline]
    fn on_lookahead(&mut self, _phase: PredictPhase) {}

    /// A prediction phase ended.
    #[inline]
    fn on_predict_end(&mut self, _x: NonTerminal, _phase: PredictPhase, _outcome: PredictOutcome) {}

    /// `adaptivePredict` ran a real (multi-alternative) decision.
    #[inline]
    fn on_decision(&mut self, _x: NonTerminal) {}

    /// A decision short-circuited because its nonterminal has a single
    /// alternative.
    #[inline]
    fn on_single_alt(&mut self, _x: NonTerminal) {}

    /// A decision was committed from the SLL phase without failover.
    #[inline]
    fn on_sll_resolved(&mut self, _x: NonTerminal) {}

    /// An SLL conflict triggered failover to LL prediction (§3.4).
    #[inline]
    fn on_failover(&mut self, _x: NonTerminal) {}

    /// A decision was dispatched through the static LL(1) lookahead map,
    /// skipping subparser simulation and cache traffic entirely.
    #[inline]
    fn on_static_fast_path(&mut self, _x: NonTerminal) {}

    /// An SLL decision with a finite certified lookahead bound (the
    /// `costar-cert-v1` audit certificate) resolved; `ok` reports whether
    /// the observed lookahead stayed within the certified bound. A `false`
    /// here means the certificate *understated* the bound — the one claim
    /// static replay cannot refute (sufficiency is universal over inputs),
    /// checked dynamically instead. Fires only at committed SLL
    /// resolutions (unique or reject), never on conflicts that fail over.
    #[inline]
    fn on_certificate_check(&mut self, _x: NonTerminal, _ok: bool) {}

    /// A DFA transition lookup is about to run.
    #[inline]
    fn on_cache_lookup(&mut self) {}

    /// The transition lookup was answered from the cache.
    #[inline]
    fn on_cache_hit(&mut self) {}

    /// The transition lookup missed; a move+closure computation follows.
    #[inline]
    fn on_cache_miss(&mut self) {}

    /// Interning evicted `evicted` states to stay under the capacity caps.
    #[inline]
    fn on_cache_evictions(&mut self, _evicted: u64) {}

    /// One closure worklist item was processed (a simulated push, return,
    /// or stable-config emission — the inner loop of prediction).
    #[inline]
    fn on_closure_step(&mut self) {}

    /// The budget ran out. Fires at the site of the failed charge (or
    /// depth check), before the abort propagates outward.
    #[inline]
    fn on_abort(&mut self, _reason: &AbortReason) {}

    /// A recovering parse ([`crate::Parser::parse_recovering`]) caught a
    /// rejection at input position `cursor` and is about to resynchronize.
    /// The plain parse path never fires this.
    #[inline]
    fn on_recovery(&mut self, _cursor: usize, _reason: &crate::error::RejectReason) {}

    /// Panic-mode resynchronization skipped the token at `cursor`
    /// (one event per skipped token).
    #[inline]
    fn on_resync_skip(&mut self, _cursor: usize) {}

    /// An accepting or rejecting parse finished and its metered fuel was
    /// compared against the grammar's certified cost bound
    /// (`costar-cost-v1`, see `CostModel::bound_for`): `predicted_steps`
    /// is the bound for this input's length and `within_bound` whether
    /// `Meter::steps_taken() ≤ predicted_steps` held. A `false` means the
    /// certificate *understated* the cost — exactly the deflation failure
    /// mode [`ParseObserver::on_certificate_check`] catches for lookahead
    /// bounds, caught dynamically because static replay can only pin the
    /// derivation, not the universal claim over inputs. Never fires for
    /// errored or aborted parses (the bound's claim covers accepting and
    /// rejecting parses only), and never after a recovery (resync work is
    /// outside the certified budget) — a recovering parse of valid input
    /// is checked exactly like the plain parse. Fires just before
    /// [`ParseObserver::on_finish`].
    #[inline]
    fn on_cost_check(&mut self, _predicted_steps: u64, _within_bound: bool) {}

    /// An edit session spliced fresh tokens into its cached token vector
    /// ([`crate::Parser::reparse_after_edit`]): `tokens_relexed` came from
    /// re-scanning the damaged region, `tokens_reused` were carried over
    /// from the previous lex (prefix + rebased suffix), and the re-lex
    /// took `micros` microseconds of wall clock. Fires once per applied
    /// edit, before any re-parse events; batch parses never fire it.
    #[inline]
    fn on_incremental_relex(&mut self, _tokens_relexed: u64, _tokens_reused: u64, _micros: u64) {}

    /// The parse finished with `meter_steps` total fuel charged —
    /// machine steps plus prediction lookahead.
    #[inline]
    fn on_finish(&mut self, _meter_steps: u64) {}
}

/// The do-nothing observer: every hook keeps its empty default body, so
/// the monomorphized parse loop contains no observer code at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl ParseObserver for NullObserver {}

/// A pair of observers receiving every event, in order. Composes e.g. a
/// [`MetricsObserver`] with a [`TraceObserver`] for one parse.
impl<A: ParseObserver, B: ParseObserver> ParseObserver for (A, B) {
    #[inline]
    fn on_machine_step(&mut self, cursor: usize, stack_height: usize) {
        self.0.on_machine_step(cursor, stack_height);
        self.1.on_machine_step(cursor, stack_height);
    }
    #[inline]
    fn on_op(&mut self, op: MachineOp, cursor: usize, stack_height: usize) {
        self.0.on_op(op, cursor, stack_height);
        self.1.on_op(op, cursor, stack_height);
    }
    #[inline]
    fn on_predict_start(&mut self, x: NonTerminal, phase: PredictPhase) {
        self.0.on_predict_start(x, phase);
        self.1.on_predict_start(x, phase);
    }
    #[inline]
    fn on_lookahead(&mut self, phase: PredictPhase) {
        self.0.on_lookahead(phase);
        self.1.on_lookahead(phase);
    }
    #[inline]
    fn on_predict_end(&mut self, x: NonTerminal, phase: PredictPhase, outcome: PredictOutcome) {
        self.0.on_predict_end(x, phase, outcome);
        self.1.on_predict_end(x, phase, outcome);
    }
    #[inline]
    fn on_decision(&mut self, x: NonTerminal) {
        self.0.on_decision(x);
        self.1.on_decision(x);
    }
    #[inline]
    fn on_single_alt(&mut self, x: NonTerminal) {
        self.0.on_single_alt(x);
        self.1.on_single_alt(x);
    }
    #[inline]
    fn on_sll_resolved(&mut self, x: NonTerminal) {
        self.0.on_sll_resolved(x);
        self.1.on_sll_resolved(x);
    }
    #[inline]
    fn on_failover(&mut self, x: NonTerminal) {
        self.0.on_failover(x);
        self.1.on_failover(x);
    }
    #[inline]
    fn on_static_fast_path(&mut self, x: NonTerminal) {
        self.0.on_static_fast_path(x);
        self.1.on_static_fast_path(x);
    }
    #[inline]
    fn on_certificate_check(&mut self, x: NonTerminal, ok: bool) {
        self.0.on_certificate_check(x, ok);
        self.1.on_certificate_check(x, ok);
    }
    #[inline]
    fn on_cache_lookup(&mut self) {
        self.0.on_cache_lookup();
        self.1.on_cache_lookup();
    }
    #[inline]
    fn on_cache_hit(&mut self) {
        self.0.on_cache_hit();
        self.1.on_cache_hit();
    }
    #[inline]
    fn on_cache_miss(&mut self) {
        self.0.on_cache_miss();
        self.1.on_cache_miss();
    }
    #[inline]
    fn on_cache_evictions(&mut self, evicted: u64) {
        self.0.on_cache_evictions(evicted);
        self.1.on_cache_evictions(evicted);
    }
    #[inline]
    fn on_closure_step(&mut self) {
        self.0.on_closure_step();
        self.1.on_closure_step();
    }
    #[inline]
    fn on_abort(&mut self, reason: &AbortReason) {
        self.0.on_abort(reason);
        self.1.on_abort(reason);
    }
    #[inline]
    fn on_recovery(&mut self, cursor: usize, reason: &crate::error::RejectReason) {
        self.0.on_recovery(cursor, reason);
        self.1.on_recovery(cursor, reason);
    }
    #[inline]
    fn on_resync_skip(&mut self, cursor: usize) {
        self.0.on_resync_skip(cursor);
        self.1.on_resync_skip(cursor);
    }
    #[inline]
    fn on_cost_check(&mut self, predicted_steps: u64, within_bound: bool) {
        self.0.on_cost_check(predicted_steps, within_bound);
        self.1.on_cost_check(predicted_steps, within_bound);
    }
    #[inline]
    fn on_incremental_relex(&mut self, tokens_relexed: u64, tokens_reused: u64, micros: u64) {
        self.0
            .on_incremental_relex(tokens_relexed, tokens_reused, micros);
        self.1
            .on_incremental_relex(tokens_relexed, tokens_reused, micros);
    }
    #[inline]
    fn on_finish(&mut self, meter_steps: u64) {
        self.0.on_finish(meter_steps);
        self.1.on_finish(meter_steps);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting(u64);
    impl ParseObserver for Counting {
        fn on_machine_step(&mut self, _c: usize, _h: usize) {
            self.0 += 1;
        }
        fn on_lookahead(&mut self, _p: PredictPhase) {
            self.0 += 1;
        }
    }

    #[test]
    fn pair_observer_forwards_to_both() {
        let mut pair = (Counting::default(), Counting::default());
        pair.on_machine_step(0, 1);
        pair.on_lookahead(PredictPhase::Sll);
        pair.on_cache_hit(); // default body: no count
        assert_eq!(pair.0 .0, 2);
        assert_eq!(pair.1 .0, 2);
    }

    #[test]
    fn null_observer_accepts_every_event() {
        let mut null = NullObserver;
        null.on_machine_step(0, 0);
        null.on_op(MachineOp::Consume, 0, 1);
        null.on_abort(&crate::budget::AbortReason::StepLimit { limit: 1 });
        null.on_finish(0);
    }
}
