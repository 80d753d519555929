//! The metrics observer: counters and per-phase latency histograms,
//! aggregated into a serializable [`ParseMetrics`].

use super::{DecisionPath, Event, MachineOp, ParseObserver, PredictOutcome, PredictPhase};
use crate::budget::AbortReason;
use costar_grammar::json::{self, Fixed, JsonWriter};
use std::time::Instant;

const BUCKETS: usize = 40;

/// A power-of-two-bucket histogram: bucket `i` counts samples `v` with
/// `2^(i-1) <= v < 2^i` (bucket 0 counts zeros). Fixed size, no
/// allocation, merge-friendly — enough resolution for latency-in-ns and
/// lookahead-depth distributions without a dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = (64 - v.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self`: bucket-wise addition, saturating sum,
    /// max of maxes. Merging per-worker histograms is exact — the merged
    /// histogram equals the one a single observer would have recorded
    /// seeing every sample (bucketing is per-sample, order-independent).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Nonzero buckets as `(lower_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
            .collect()
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("count", self.count)
                .field("sum", self.sum)
                .field("max", self.max)
                .field("mean", Fixed(self.mean(), 1));
            w.key("buckets").array(|w| {
                for (lo, n) in self.nonzero_buckets() {
                    w.values([lo, n]);
                }
            });
        });
    }
}

/// Everything a [`MetricsObserver`] measured over one parse. Replaced and
/// subsumed the `InstrumentReport` of earlier revisions (since removed):
/// the old report's five fields live on here (`steps` renamed to
/// [`machine_steps`](ParseMetrics::machine_steps), now counting *every*
/// admitted machine step including the final accepting/rejecting one),
/// joined by the prediction, cache, and timing dimensions.
///
/// Serialize with [`ParseMetrics::to_json`]; check internal consistency
/// with [`ParseMetrics::reconciles`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseMetrics {
    /// Machine steps admitted by the meter (one fuel unit each).
    pub machine_steps: u64,
    /// Push operations performed (= decisions taken).
    pub pushes: u64,
    /// Consume operations performed (= tokens matched into leaves).
    pub consumes: u64,
    /// Return operations performed.
    pub returns: u64,
    /// Maximum suffix-stack height observed.
    pub max_stack_height: usize,
    /// Prediction lookahead tokens admitted by the meter (one fuel unit
    /// each), across both phases.
    pub prediction_steps: u64,
    /// Lookahead tokens admitted during SLL phases.
    pub sll_steps: u64,
    /// Lookahead tokens admitted during LL phases.
    pub ll_steps: u64,
    /// Multi-alternative `adaptivePredict` decisions.
    pub decisions: u64,
    /// Decisions short-circuited (single-alternative nonterminal).
    pub single_alternative: u64,
    /// Decisions committed by SLL without failover.
    pub sll_resolved: u64,
    /// SLL conflicts that failed over to LL.
    pub failovers: u64,
    /// Decisions dispatched through the static LL(1) lookahead map
    /// (no simulation, no cache traffic, no prediction fuel).
    pub static_fast_path_hits: u64,
    /// SLL resolutions checked against a finite certified lookahead bound
    /// from the `costar-cert-v1` audit certificate.
    pub certificate_validations: u64,
    /// Checks where the observed lookahead exceeded the certified bound —
    /// a deflated (understated) certificate, refutable only dynamically.
    pub certificate_failures: u64,
    /// Certified fuel bound `CostModel::bound_for(tokens)` from the
    /// `costar-cost-v1` certificate, recorded when the finished parse was
    /// checked against it (accepting/rejecting parses only). Sums across
    /// merged batch metrics, like `meter_steps`.
    pub predicted_steps: u64,
    /// Finished parses checked against the certified cost bound.
    pub cost_checks: u64,
    /// Checks where metered fuel exceeded the certified bound — a
    /// deflated cost certificate, refutable only dynamically.
    pub cost_violations: u64,
    /// DFA transition lookups issued.
    pub cache_lookups: u64,
    /// Lookups answered from the cache.
    pub cache_hits: u64,
    /// Lookups that required a fresh move+closure computation.
    pub cache_misses: u64,
    /// States evicted under capacity pressure during this parse.
    pub cache_evictions: u64,
    /// Closure worklist items processed (the prediction inner loop).
    pub closure_steps: u64,
    /// Syntax-error recoveries performed (recovering parses only).
    pub recoveries: u64,
    /// Input tokens skipped by panic-mode resynchronization.
    pub tokens_skipped: u64,
    /// Tokens produced by incremental re-lexing of edited regions
    /// ([`Parser::reparse_after_edit`](crate::Parser::reparse_after_edit));
    /// zero for from-scratch parses.
    pub tokens_relexed: u64,
    /// Tokens carried over unscanned from the previous lex (prefix +
    /// rebased suffix) across incremental re-lexes.
    pub tokens_reused: u64,
    /// Wall-clock microseconds spent in incremental re-lexing, summed
    /// across the edits this metrics object covers.
    pub incremental_lex_micros: u64,
    /// Why the parse aborted, if it did.
    pub abort: Option<AbortReason>,
    /// `Meter::steps_taken()` at the end of the parse — the budget
    /// layer's own count, embedded so consumers can verify
    /// [`ParseMetrics::reconciles`] without access to the meter.
    pub meter_steps: u64,
    /// Latency distribution of SLL prediction phases, in nanoseconds.
    pub sll_latency_ns: Histogram,
    /// Latency distribution of LL prediction phases, in nanoseconds.
    pub ll_latency_ns: Histogram,
    /// Lookahead depth distribution per prediction phase.
    pub lookahead_depth: Histogram,
    /// Input length in tokens (filled by
    /// [`Parser::run_measured`](crate::Parser::run_measured)).
    pub tokens: usize,
    /// Total wall-clock nanoseconds for the parse (filled by
    /// [`Parser::run_measured`](crate::Parser::run_measured)).
    pub total_nanos: u64,
}

impl ParseMetrics {
    /// The cross-layer consistency invariant: the observer's step counts
    /// must reconcile exactly with the meter's, and every cache lookup
    /// must have resolved to a hit or a miss.
    pub fn reconciles(&self) -> bool {
        self.machine_steps + self.prediction_steps == self.meter_steps
            && self.cache_hits + self.cache_misses == self.cache_lookups
            && self.sll_steps + self.ll_steps == self.prediction_steps
    }

    /// Folds the metrics of another parse into `self`, producing a batch
    /// roll-up: counters and histograms add, `max_stack_height` takes the
    /// max, `tokens`/`total_nanos` accumulate, and `abort` keeps the
    /// first abort seen (merge order is the batch's stable input order,
    /// so "first" is deterministic). If each summand
    /// [`reconciles`](ParseMetrics::reconciles), so does the sum — all
    /// three reconciliation equations are linear.
    pub fn merge(&mut self, other: &ParseMetrics) {
        self.machine_steps += other.machine_steps;
        self.pushes += other.pushes;
        self.consumes += other.consumes;
        self.returns += other.returns;
        self.max_stack_height = self.max_stack_height.max(other.max_stack_height);
        self.prediction_steps += other.prediction_steps;
        self.sll_steps += other.sll_steps;
        self.ll_steps += other.ll_steps;
        self.decisions += other.decisions;
        self.single_alternative += other.single_alternative;
        self.sll_resolved += other.sll_resolved;
        self.failovers += other.failovers;
        self.static_fast_path_hits += other.static_fast_path_hits;
        self.certificate_validations += other.certificate_validations;
        self.certificate_failures += other.certificate_failures;
        self.predicted_steps = self.predicted_steps.saturating_add(other.predicted_steps);
        self.cost_checks += other.cost_checks;
        self.cost_violations += other.cost_violations;
        self.cache_lookups += other.cache_lookups;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.closure_steps += other.closure_steps;
        self.recoveries += other.recoveries;
        self.tokens_skipped += other.tokens_skipped;
        self.tokens_relexed += other.tokens_relexed;
        self.tokens_reused += other.tokens_reused;
        self.incremental_lex_micros = self
            .incremental_lex_micros
            .saturating_add(other.incremental_lex_micros);
        if self.abort.is_none() {
            self.abort = other.abort;
        }
        self.meter_steps += other.meter_steps;
        self.sll_latency_ns.merge(&other.sll_latency_ns);
        self.ll_latency_ns.merge(&other.ll_latency_ns);
        self.lookahead_depth.merge(&other.lookahead_depth);
        self.tokens += other.tokens;
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
    }

    /// The metrics with every wall-clock-derived field zeroed: latency
    /// histograms cleared and `total_nanos` dropped. What remains is a
    /// pure function of (grammar, input, budget, prediction mode) — this
    /// is the view over which the batch determinism contract is stated:
    /// `a.deterministic() == b.deterministic()` must hold between a
    /// sequential parse and the same input parsed by any worker under any
    /// scheduling, while raw equality would be perturbed by timing noise.
    pub fn deterministic(&self) -> ParseMetrics {
        let mut m = self.clone();
        m.sll_latency_ns = Histogram::default();
        m.ll_latency_ns = Histogram::default();
        m.total_nanos = 0;
        m.incremental_lex_micros = 0;
        m
    }

    /// How much headroom the certified cost bound left: `predicted_steps
    /// / meter_steps`, 0.0 when either side is zero (no check ran, or an
    /// empty parse). A ratio ≥ 1.0 means the certificate held; the
    /// `parse_bench` CI gate keeps this within a fixed envelope so the
    /// bound stays sound *and* usefully tight.
    pub fn cost_bound_ratio(&self) -> f64 {
        if self.meter_steps == 0 || self.predicted_steps == 0 {
            0.0
        } else {
            self.predicted_steps as f64 / self.meter_steps as f64
        }
    }

    /// Fraction of the spliced token vector carried over unscanned from
    /// the previous lex: `tokens_reused / (tokens_relexed +
    /// tokens_reused)`, 0.0 when no incremental re-lex ran. Near 1.0 for
    /// small edits in large files — the quantity the incremental-lexing
    /// speedup claim rides on.
    pub fn splice_reuse_fraction(&self) -> f64 {
        let total = self.tokens_relexed + self.tokens_reused;
        if total == 0 {
            0.0
        } else {
            self.tokens_reused as f64 / total as f64
        }
    }

    /// Cache hit rate in `[0, 1]`; 0.0 with no lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Tokens parsed per second; 0.0 if no time was recorded.
    pub fn tokens_per_sec(&self) -> f64 {
        if self.total_nanos == 0 {
            0.0
        } else {
            self.tokens as f64 * 1e9 / self.total_nanos as f64
        }
    }

    /// Serializes the metrics as a self-contained JSON object (written by
    /// `costar_grammar::json`; every field name matches the struct field).
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.field("machine_steps", self.machine_steps)
                .field("pushes", self.pushes)
                .field("consumes", self.consumes)
                .field("returns", self.returns)
                .field("max_stack_height", self.max_stack_height)
                .field("prediction_steps", self.prediction_steps)
                .field("sll_steps", self.sll_steps)
                .field("ll_steps", self.ll_steps)
                .field("decisions", self.decisions)
                .field("single_alternative", self.single_alternative)
                .field("sll_resolved", self.sll_resolved)
                .field("failovers", self.failovers)
                .field("static_fast_path_hits", self.static_fast_path_hits)
                .field("certificate_validations", self.certificate_validations)
                .field("certificate_failures", self.certificate_failures)
                .field("predicted_steps", self.predicted_steps)
                .field("cost_checks", self.cost_checks)
                .field("cost_violations", self.cost_violations)
                .field("cost_bound_ratio", Fixed(self.cost_bound_ratio(), 4))
                .field("cache_lookups", self.cache_lookups)
                .field("cache_hits", self.cache_hits)
                .field("cache_misses", self.cache_misses)
                .field("cache_evictions", self.cache_evictions)
                .field("cache_hit_rate", Fixed(self.cache_hit_rate(), 4))
                .field("closure_steps", self.closure_steps)
                .field("recoveries", self.recoveries)
                .field("tokens_skipped", self.tokens_skipped)
                .field("tokens_relexed", self.tokens_relexed)
                .field("tokens_reused", self.tokens_reused)
                .field("incremental_lex_micros", self.incremental_lex_micros)
                .field(
                    "splice_reuse_fraction",
                    Fixed(self.splice_reuse_fraction(), 4),
                )
                .field("abort", self.abort.as_ref().map(|r| r.to_string()).as_ref())
                .field("meter_steps", self.meter_steps)
                .field("reconciles", self.reconciles())
                .field("tokens", self.tokens)
                .field("total_nanos", self.total_nanos)
                .field("tokens_per_sec", Fixed(self.tokens_per_sec(), 1));
            self.sll_latency_ns.write_json(w.key("sll_latency_ns"));
            self.ll_latency_ns.write_json(w.key("ll_latency_ns"));
            self.lookahead_depth.write_json(w.key("lookahead_depth"));
        })
    }
}

/// A [`ParseObserver`] that aggregates every event into [`ParseMetrics`].
///
/// Per-phase latency is measured with two `Instant::now()` reads per
/// prediction phase — decisions are rare relative to machine steps, so
/// the clock cost stays out of the hot loop.
#[derive(Debug, Default)]
pub struct MetricsObserver {
    m: ParseMetrics,
    phase_start: Option<Instant>,
    phase_lookahead: u64,
}

impl MetricsObserver {
    /// Creates an observer with zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the metrics accumulated so far.
    pub fn metrics(&self) -> &ParseMetrics {
        &self.m
    }

    /// Consumes the observer, yielding its metrics.
    pub fn into_metrics(self) -> ParseMetrics {
        self.m
    }
}

impl ParseObserver for MetricsObserver {
    /// Always inlined: each call site passes a constant variant, so the
    /// inlined `match` folds to the one counter update its event implies.
    /// A plain `#[inline]` hint leaves this many-armed body out of line
    /// at some sites, paying a call and a jump table per machine step.
    #[inline(always)]
    fn on_event(&mut self, e: Event) {
        let m = &mut self.m;
        match e {
            Event::MachineStep { stack_height, .. } => {
                m.machine_steps += 1;
                m.max_stack_height = m.max_stack_height.max(stack_height);
            }
            Event::Op {
                op, stack_height, ..
            } => {
                match op {
                    MachineOp::Push => m.pushes += 1,
                    MachineOp::Consume => m.consumes += 1,
                    MachineOp::Return => m.returns += 1,
                }
                m.max_stack_height = m.max_stack_height.max(stack_height);
            }
            Event::PredictStart { .. } => {
                self.phase_start = Some(Instant::now());
                self.phase_lookahead = 0;
            }
            Event::Lookahead { phase } => {
                m.prediction_steps += 1;
                self.phase_lookahead += 1;
                match phase {
                    PredictPhase::Sll => m.sll_steps += 1,
                    PredictPhase::Ll => m.ll_steps += 1,
                }
            }
            Event::PredictEnd { phase, outcome, .. } => {
                if let Some(start) = self.phase_start.take() {
                    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    match phase {
                        PredictPhase::Sll => m.sll_latency_ns.record(ns),
                        PredictPhase::Ll => m.ll_latency_ns.record(ns),
                    }
                }
                m.lookahead_depth.record(self.phase_lookahead);
                self.phase_lookahead = 0;
                // `adaptivePredict` commits every SLL answer but a
                // conflict (which fails over) and an abort.
                if phase == PredictPhase::Sll
                    && matches!(
                        outcome,
                        PredictOutcome::Unique | PredictOutcome::Reject | PredictOutcome::Error
                    )
                {
                    m.sll_resolved += 1;
                }
            }
            Event::Decision { path, .. } => match path {
                DecisionPath::SingleAlternative => m.single_alternative += 1,
                DecisionPath::Static => {
                    m.decisions += 1;
                    m.static_fast_path_hits += 1;
                }
                DecisionPath::Simulated => m.decisions += 1,
            },
            Event::Failover { .. } => m.failovers += 1,
            Event::CertificateCheck { ok, .. } => {
                m.certificate_validations += 1;
                if !ok {
                    m.certificate_failures += 1;
                }
            }
            Event::CacheLookup => m.cache_lookups += 1,
            Event::CacheHit => m.cache_hits += 1,
            Event::CacheMiss => m.cache_misses += 1,
            Event::CacheEvictions { evicted } => m.cache_evictions += evicted,
            Event::ClosureStep => m.closure_steps += 1,
            Event::Abort { reason } => m.abort = Some(reason),
            Event::Recovery { .. } => m.recoveries += 1,
            Event::ResyncSkip { .. } => m.tokens_skipped += 1,
            Event::CostCheck {
                predicted_steps,
                within_bound,
            } => {
                m.predicted_steps = m.predicted_steps.saturating_add(predicted_steps);
                m.cost_checks += 1;
                if !within_bound {
                    m.cost_violations += 1;
                }
            }
            Event::IncrementalRelex {
                tokens_relexed,
                tokens_reused,
                micros,
            } => {
                m.tokens_relexed += tokens_relexed;
                m.tokens_reused += tokens_reused;
                m.incremental_lex_micros = m.incremental_lex_micros.saturating_add(micros);
            }
            Event::Finish { meter_steps } => m.meter_steps = meter_steps,
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use costar_grammar::NonTerminal;

    /// One SLL phase on nonterminal 0 that reads one lookahead token.
    fn sll_phase(obs: &mut MetricsObserver, outcome: PredictOutcome) {
        let x = NonTerminal::from_index(0);
        let phase = PredictPhase::Sll;
        obs.on_event(Event::PredictStart { x, phase });
        obs.on_event(Event::Lookahead { phase });
        obs.on_event(Event::PredictEnd { x, phase, outcome });
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 3, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 13);
        assert_eq!(h.max(), 8);
        assert!((h.mean() - 2.6).abs() < 1e-9);
        // zeros -> bucket 0; 1 -> [1,2); 3 -> [2,4); 8 -> [8,16).
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 2), (2, 1), (8, 1)]);
    }

    #[test]
    fn histogram_saturates_on_huge_samples() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.nonzero_buckets().len(), 1);
    }

    #[test]
    fn reconciles_checks_all_three_equations() {
        let mut m = ParseMetrics {
            machine_steps: 3,
            prediction_steps: 2,
            sll_steps: 2,
            meter_steps: 5,
            cache_lookups: 1,
            cache_misses: 1,
            ..ParseMetrics::default()
        };
        assert!(m.reconciles());
        m.meter_steps = 6;
        assert!(!m.reconciles());
        m.meter_steps = 5;
        m.cache_hits = 1;
        assert!(!m.reconciles());
    }

    #[test]
    fn json_contains_every_headline_field() {
        let mut obs = MetricsObserver::new();
        obs.on_event(Event::MachineStep {
            cursor: 0,
            stack_height: 1,
        });
        obs.on_event(Event::Op {
            op: MachineOp::Consume,
            cursor: 0,
            stack_height: 1,
        });
        sll_phase(&mut obs, PredictOutcome::Unique);
        obs.on_event(Event::Finish { meter_steps: 2 });
        let m = obs.into_metrics();
        assert!(m.reconciles());
        let json = m.to_json();
        for key in [
            "\"machine_steps\":1",
            "\"consumes\":1",
            "\"prediction_steps\":1",
            "\"meter_steps\":2",
            "\"reconciles\":true",
            "\"abort\":null",
            "\"static_fast_path_hits\":0",
            "\"sll_latency_ns\"",
            "\"lookahead_depth\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn histogram_merge_equals_single_observer() {
        let (mut a, mut b, mut whole) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in [0u64, 1, 7, 1 << 20] {
            a.record(v);
            whole.record(v);
        }
        for v in [3u64, 3, u64::MAX] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn metrics_merge_preserves_reconciliation_and_first_abort() {
        let a = ParseMetrics {
            machine_steps: 3,
            prediction_steps: 2,
            sll_steps: 2,
            meter_steps: 5,
            cache_lookups: 2,
            cache_hits: 1,
            cache_misses: 1,
            max_stack_height: 4,
            tokens: 10,
            ..ParseMetrics::default()
        };
        let b = ParseMetrics {
            machine_steps: 1,
            prediction_steps: 3,
            ll_steps: 3,
            meter_steps: 4,
            max_stack_height: 2,
            tokens: 5,
            abort: Some(AbortReason::StepLimit { limit: 4 }),
            ..ParseMetrics::default()
        };
        assert!(a.reconciles() && b.reconciles());
        let mut sum = a.clone();
        sum.merge(&b);
        assert!(sum.reconciles(), "merge must preserve reconciliation");
        assert_eq!(sum.machine_steps, 4);
        assert_eq!(sum.meter_steps, 9);
        assert_eq!(sum.max_stack_height, 4);
        assert_eq!(sum.tokens, 15);
        assert_eq!(sum.abort, Some(AbortReason::StepLimit { limit: 4 }));
        // First abort wins: merging another abort on top doesn't replace it.
        let mut sum2 = sum.clone();
        sum2.merge(&ParseMetrics {
            abort: Some(AbortReason::StepLimit { limit: 9 }),
            ..ParseMetrics::default()
        });
        assert_eq!(sum2.abort, Some(AbortReason::StepLimit { limit: 4 }));
    }

    #[test]
    fn deterministic_view_drops_only_wall_clock_fields() {
        let mut obs = MetricsObserver::new();
        sll_phase(&mut obs, PredictOutcome::Unique);
        obs.on_event(Event::Finish { meter_steps: 1 });
        let mut m = obs.into_metrics();
        m.total_nanos = 1234;
        let d = m.deterministic();
        assert_eq!(d.total_nanos, 0);
        assert_eq!(d.sll_latency_ns, Histogram::default());
        // Lookahead depth is input-determined, not wall-clock: kept.
        assert_eq!(d.lookahead_depth.count(), 1);
        assert_eq!(d.sll_steps, 1);
        assert!(d.reconciles());
    }

    #[test]
    fn certificate_checks_are_counted_and_serialized() {
        let mut obs = MetricsObserver::new();
        let x = NonTerminal::from_index(0);
        for ok in [true, true, false] {
            obs.on_event(Event::CertificateCheck { x, ok });
        }
        let m = obs.into_metrics();
        assert_eq!(m.certificate_validations, 3);
        assert_eq!(m.certificate_failures, 1);
        let json = m.to_json();
        assert!(json.contains("\"certificate_validations\":3"));
        assert!(json.contains("\"certificate_failures\":1"));
        let mut sum = m.clone();
        sum.merge(&m);
        assert_eq!(sum.certificate_validations, 6);
        assert_eq!(sum.certificate_failures, 2);
    }

    #[test]
    fn cost_checks_are_counted_and_serialized() {
        let mut obs = MetricsObserver::new();
        obs.on_event(Event::CostCheck {
            predicted_steps: 120,
            within_bound: true,
        });
        obs.on_event(Event::CostCheck {
            predicted_steps: 80,
            within_bound: false,
        });
        let mut m = obs.into_metrics();
        assert_eq!(m.predicted_steps, 200);
        assert_eq!(m.cost_checks, 2);
        assert_eq!(m.cost_violations, 1);
        m.meter_steps = 100;
        assert!((m.cost_bound_ratio() - 2.0).abs() < 1e-9);
        let json = m.to_json();
        assert!(json.contains("\"predicted_steps\":200"));
        assert!(json.contains("\"cost_checks\":2"));
        assert!(json.contains("\"cost_violations\":1"));
        assert!(json.contains("\"cost_bound_ratio\":2.0000"));
        let mut sum = m.clone();
        sum.merge(&m);
        assert_eq!(sum.predicted_steps, 400);
        assert_eq!(sum.cost_checks, 4);
        assert_eq!(sum.cost_violations, 2);
        assert_eq!(ParseMetrics::default().cost_bound_ratio(), 0.0);
    }

    #[test]
    fn incremental_relex_counters_and_reuse_fraction() {
        let mut obs = MetricsObserver::new();
        obs.on_event(Event::IncrementalRelex {
            tokens_relexed: 2,
            tokens_reused: 98,
            micros: 40,
        });
        obs.on_event(Event::IncrementalRelex {
            tokens_relexed: 3,
            tokens_reused: 97,
            micros: 2,
        });
        let m = obs.into_metrics();
        assert_eq!(m.tokens_relexed, 5);
        assert_eq!(m.tokens_reused, 195);
        assert_eq!(m.incremental_lex_micros, 42);
        assert!((m.splice_reuse_fraction() - 0.975).abs() < 1e-9);
        let json = m.to_json();
        assert!(json.contains("\"tokens_relexed\":5"));
        assert!(json.contains("\"tokens_reused\":195"));
        assert!(json.contains("\"incremental_lex_micros\":42"));
        assert!(json.contains("\"splice_reuse_fraction\":0.9750"));
        // The micros are wall clock and leave the deterministic view; the
        // token counts are input-determined and stay.
        let d = m.deterministic();
        assert_eq!(d.incremental_lex_micros, 0);
        assert_eq!(d.tokens_relexed, 5);
        assert_eq!(d.tokens_reused, 195);
        let mut sum = m.clone();
        sum.merge(&m);
        assert_eq!(sum.tokens_relexed, 10);
        assert_eq!(sum.tokens_reused, 390);
        assert_eq!(sum.incremental_lex_micros, 84);
        assert_eq!(ParseMetrics::default().splice_reuse_fraction(), 0.0);
    }

    #[test]
    fn decision_counters_follow_paths_and_sll_phase_ends() {
        let mut obs = MetricsObserver::new();
        let x = NonTerminal::from_index(0);
        for path in [
            DecisionPath::SingleAlternative,
            DecisionPath::Static,
            DecisionPath::Simulated,
            DecisionPath::Simulated,
        ] {
            obs.on_event(Event::Decision { x, path });
        }
        // The first simulated decision commits from SLL; the second
        // conflicts and fails over, and its LL phase is not an SLL
        // resolution.
        sll_phase(&mut obs, PredictOutcome::Unique);
        sll_phase(&mut obs, PredictOutcome::Ambig);
        obs.on_event(Event::Failover { x });
        let phase = PredictPhase::Ll;
        obs.on_event(Event::PredictStart { x, phase });
        obs.on_event(Event::PredictEnd {
            x,
            phase,
            outcome: PredictOutcome::Unique,
        });
        let m = obs.into_metrics();
        assert_eq!(m.single_alternative, 1);
        assert_eq!(m.decisions, 3);
        assert_eq!(m.static_fast_path_hits, 1);
        assert_eq!(m.sll_resolved, 1);
        assert_eq!(m.failovers, 1);
        assert_eq!(
            m.decisions,
            m.static_fast_path_hits + m.sll_resolved + m.failovers
        );
    }

    #[test]
    fn abort_serialized_as_string() {
        let mut obs = MetricsObserver::new();
        obs.on_event(Event::Abort {
            reason: AbortReason::StepLimit { limit: 7 },
        });
        let m = obs.into_metrics();
        assert!(m
            .to_json()
            .contains("\"abort\":\"step budget exhausted (limit 7)\""));
    }
}
