//! Batch parsing: many inputs, one shared read-only grammar context.
//!
//! The ROADMAP's production north star is corpus-shaped traffic — many
//! independent inputs against one grammar. [`BatchParser`] wraps one
//! [`Parser`] whose grammar and analysis (the latter carrying the
//! [`DecisionTable`](costar_grammar::analysis::DecisionTable)) sit behind
//! `Arc`s: each worker is a clone of that parser, sharing the immutable
//! context and owning only a private [`SllCache`]. Every
//! input therefore runs through the same driver as a sequential parse
//! ([`Parser::run`]) — budget, cache policy, panic boundary, step loop
//! and metrics stamp included.
//!
//! ## Determinism contract
//!
//! Per-input results are a pure function of (grammar, input, budget,
//! prediction mode, cache-start state) — never of worker count or
//! scheduling. Concretely, for every input the outcome, tree,
//! diagnostics, exit class, and the deterministic view of its metrics
//! ([`ParseMetrics::deterministic`]) are byte-identical across runs with
//! any `--jobs` value, and identical to a sequential (`jobs = 1`) run.
//! The design choices that make this true:
//!
//! * every input starts from the same cache state: empty by default, or
//!   (in warm mode, [`BatchParser::with_warm_cache`]) a private clone of
//!   one snapshot taken after a warmup parse
//!   ([`CachePolicy::Snapshot`]) — never a cache that other inputs
//!   mutated in a schedule-dependent order;
//! * every input draws from its own fresh [`Budget`] meter, so fuel and
//!   the wall-clock deadline are per parse (see
//!   [`Budget::with_deadline`]), not shared from batch start;
//! * results are scattered back into input order regardless of which
//!   worker finished first.
//!
//! Wall-clock fields (`total_nanos`, latency histograms) are measurement,
//! not behavior, and are excluded from the contract.
//!
//! ## Scheduling
//!
//! Work units are claimed from a shared atomic counter (dynamic load
//! balancing — a worker stuck on a pathological input doesn't idle the
//! rest); with one job the calling thread parses everything. Inputs of
//! at least [`DEFAULT_SMALL_INPUT_THRESHOLD`] tokens form singleton units;
//! runs of smaller inputs are grouped so per-unit overhead (the claim,
//! result vector growth) amortizes across a group rather than recurring
//! per tiny file.

#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]

use crate::budget::Budget;
use crate::error::ParseError;
use crate::machine::ParseOutcome;
use crate::observe::{NullObserver, ParseMetrics};
use crate::parser::{CachePolicy, Parser};
use crate::prediction::cache::SllCache;
use crate::recover::{exit_code, RecoveredParse};
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{Grammar, Token, Tree};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Inputs with at least this many tokens get their own work unit;
/// smaller ones are grouped.
pub const DEFAULT_SMALL_INPUT_THRESHOLD: usize = 256;

/// Upper bound on how many small inputs one work unit may group.
const MAX_GROUP: usize = 64;

/// A parser for running one grammar over many inputs, optionally in
/// parallel, with deterministic per-input results.
///
/// # Examples
///
/// ```
/// use costar::BatchParser;
/// use costar_grammar::{GrammarBuilder, Token};
///
/// let mut gb = GrammarBuilder::new();
/// gb.rule("S", &["a", "S"]);
/// gb.rule("S", &["b"]);
/// let g = gb.start("S").build()?;
/// let a = g.symbols().lookup_terminal("a").unwrap();
/// let b = g.symbols().lookup_terminal("b").unwrap();
///
/// let batch = BatchParser::new(g).with_jobs(2);
/// let inputs: Vec<Vec<Token>> = vec![
///     vec![Token::new(a, "a"), Token::new(b, "b")],
///     vec![Token::new(b, "b")],
///     vec![Token::new(a, "a")], // rejected
/// ];
/// let result = batch.parse_many(&inputs);
/// assert_eq!(result.items.len(), 3);
/// assert!(result.items[0].outcome().is_accept());
/// assert!(result.items[1].outcome().is_accept());
/// assert!(!result.items[2].outcome().is_accept());
/// assert_eq!(result.exit_code(), 1); // worst across the batch
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchParser {
    parser: Parser,
    jobs: usize,
    warm_cache: bool,
}

/// What one input produced: a plain or a recovering parse result.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchItemResult {
    /// From [`BatchParser::parse_many`].
    Plain(ParseOutcome),
    /// From [`BatchParser::parse_many_recovering`].
    Recovered(RecoveredParse),
}

/// One input's slot in a [`BatchResult`], in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItem {
    /// The parse result.
    pub result: BatchItemResult,
    /// This input's own metrics (also merged into
    /// [`BatchResult::metrics`]).
    pub metrics: ParseMetrics,
}

impl BatchItem {
    /// The machine outcome, unified across plain and recovering items.
    pub fn outcome(&self) -> &ParseOutcome {
        match &self.result {
            BatchItemResult::Plain(o) => o,
            BatchItemResult::Recovered(r) => &r.outcome,
        }
    }

    /// The parse tree, if one was produced (for recovering items, the
    /// error-annotated tree after recoveries).
    pub fn tree(&self) -> Option<&Tree> {
        match &self.result {
            BatchItemResult::Plain(o) => o.tree(),
            BatchItemResult::Recovered(r) => r.tree(),
        }
    }

    /// The CLI exit class for this input alone ([`crate::exit_code`]): 0
    /// accepted (or recovered cleanly), 1 rejected or internal error, 3
    /// budget abort, 4 parsed with recovered errors.
    pub fn exit_code(&self) -> u8 {
        match &self.result {
            BatchItemResult::Plain(o) => exit_code(o, &[]),
            BatchItemResult::Recovered(r) => exit_code(&r.outcome, &r.diagnostics),
        }
    }
}

/// Everything a batch run produced, in stable input order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// One entry per input, index-aligned with the `inputs` slice.
    pub items: Vec<BatchItem>,
    /// All per-input metrics merged in input order
    /// ([`ParseMetrics::merge`]) — one roll-up for the whole batch.
    pub metrics: ParseMetrics,
    /// Worker threads the run actually used.
    pub jobs: usize,
}

impl BatchResult {
    /// Folds the per-input exit classes into one process exit code: the
    /// *most severe* across the batch, under severity
    /// `0 < 4 < 1 < 3` — success, then parsed-with-recovered-errors,
    /// then rejected/internal error, then budget abort (an abort means
    /// the batch's verdict on that input is unknown, which outranks a
    /// definite rejection).
    pub fn exit_code(&self) -> u8 {
        fn severity(code: u8) -> u8 {
            match code {
                0 => 0,
                4 => 1,
                1 => 2,
                _ => 3, // 3 (abort) and anything unexpected
            }
        }
        self.items
            .iter()
            .map(BatchItem::exit_code)
            .max_by_key(|&c| severity(c))
            .unwrap_or(0)
    }
}

impl BatchParser {
    /// Creates a batch parser, computing the grammar analysis once. Jobs
    /// default to the machine's available parallelism; the cache is cold
    /// per input (published CoStar's policy, see
    /// [`Parser::new`](crate::Parser::new)).
    pub fn new(grammar: Grammar) -> Self {
        Self::from_parser(Parser::new(grammar))
    }

    /// Creates a batch parser around an already-shared context — e.g. an
    /// analysis restored from the on-disk grammar cache. Like
    /// [`Parser::with_analysis`](crate::Parser::with_analysis), the
    /// analysis must belong to this exact grammar.
    pub fn with_shared(grammar: Arc<Grammar>, analysis: Arc<GrammarAnalysis>) -> Self {
        Self::from_parser(Parser::with_analysis(grammar, analysis))
    }

    fn from_parser(parser: Parser) -> Self {
        BatchParser {
            parser,
            jobs: default_jobs(),
            warm_cache: false,
        }
    }

    /// Sets the worker count. `0` restores the default (available
    /// parallelism). The effective count is additionally capped by the
    /// number of work units, so tiny batches don't spawn idle threads.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = if jobs == 0 { default_jobs() } else { jobs };
        self
    }

    /// Sets the per-input [`Budget`]. Every input draws from its own
    /// fresh meter — fuel (fixed, or per-input under
    /// [`Budget::with_auto_steps`]), deadline, and recovery caps are per
    /// parse, never shared across the batch.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.parser.set_budget(budget);
        self
    }

    /// Enables warm-cache mode: before the batch runs, one warmup parse
    /// of the first input populates a prediction cache, a snapshot of
    /// which every input then starts from (each gets a private clone, see
    /// [`CachePolicy::Snapshot`]). This is the deterministic analogue of
    /// [`CachePolicy::Persistent`]: cross-input cache value without
    /// schedule-dependent cache state. The warmup parse's own result is
    /// discarded, so all inputs — including the first — observe the
    /// identical starting cache.
    pub fn with_warm_cache(mut self, on: bool) -> Self {
        self.warm_cache = on;
        self
    }

    /// The shared grammar.
    pub fn grammar(&self) -> &Grammar {
        self.parser.grammar()
    }

    /// The shared analysis.
    pub fn analysis(&self) -> &GrammarAnalysis {
        self.parser.analysis()
    }

    /// The configured worker count (before capping by unit count).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Parses every input (plain, no recovery), in input order.
    pub fn parse_many<I: AsRef<[Token]> + Sync>(&self, inputs: &[I]) -> BatchResult {
        self.run(inputs, false)
    }

    /// Parses every input with syntax-error recovery
    /// ([`Parser::parse_recovering`](crate::Parser::parse_recovering)
    /// semantics per input).
    pub fn parse_many_recovering<I: AsRef<[Token]> + Sync>(&self, inputs: &[I]) -> BatchResult {
        self.run(inputs, true)
    }

    fn run<I: AsRef<[Token]> + Sync>(&self, inputs: &[I], recover: bool) -> BatchResult {
        let units = plan_units(inputs);
        let jobs = self.jobs.min(units.len()).max(1);
        let mut first_worker = self.parser.clone();
        // Workers grow their caches on demand rather than keeping the
        // audit-sized reservation: one input fills little of it, yet its
        // scattered inserts would make the whole table resident per worker.
        first_worker.cache = SllCache::new();
        if let (true, Some(first)) = (self.warm_cache, inputs.first()) {
            // A panicking warmup leaves the cache cleared, so the batch
            // falls back to cold starts (correctness never depended on
            // cache content).
            first_worker.run(first.as_ref(), false, &mut NullObserver);
            let snapshot = std::mem::take(&mut first_worker.cache);
            first_worker.policy = CachePolicy::Snapshot(Arc::new(snapshot));
        }

        let next = AtomicUsize::new(0);
        let work = |mut parser: Parser| {
            let mut out: Vec<(usize, BatchItem)> = Vec::new();
            while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                for &i in unit {
                    let (parsed, metrics, _) =
                        parser.run_measured(inputs[i].as_ref(), recover, NullObserver);
                    let result = if recover {
                        BatchItemResult::Recovered(parsed)
                    } else {
                        BatchItemResult::Plain(parsed.outcome)
                    };
                    out.push((i, BatchItem { result, metrics }));
                }
            }
            out
        };
        let work = &work;
        let collected: Vec<(usize, BatchItem)> = if jobs == 1 {
            work(first_worker)
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..jobs)
                    .map(|_| {
                        let parser = first_worker.clone();
                        s.spawn(move || work(parser))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_default())
                    .collect()
            })
        };

        let mut slots: Vec<Option<BatchItem>> = Vec::new();
        slots.resize_with(inputs.len(), || None);
        for (i, item) in collected {
            slots[i] = Some(item);
        }
        // Per-parse panics are caught inside the parser's driver; an empty
        // slot can only mean a worker died outside that boundary. Fail the
        // input loudly rather than dropping it from the batch.
        let items: Vec<BatchItem> = slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    let outcome = ParseOutcome::Error(ParseError::invalid_state(
                        "batch worker died before producing a result".to_owned(),
                    ));
                    BatchItem {
                        result: if recover {
                            BatchItemResult::Recovered(RecoveredParse {
                                error_tree: None,
                                diagnostics: Vec::new(),
                                outcome,
                            })
                        } else {
                            BatchItemResult::Plain(outcome)
                        },
                        metrics: ParseMetrics::default(),
                    }
                })
            })
            .collect();

        let mut metrics = ParseMetrics::default();
        for item in &items {
            metrics.merge(&item.metrics);
        }
        BatchResult {
            items,
            metrics,
            jobs,
        }
    }
}

/// The default worker count: the machine's available parallelism.
fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Partitions input indices into work units: singletons for inputs of at
/// least [`DEFAULT_SMALL_INPUT_THRESHOLD`] tokens, runs of consecutive
/// smaller inputs grouped up to [`MAX_GROUP`]. Grouping affects
/// scheduling granularity only — never results, which are defined per
/// input.
fn plan_units<I: AsRef<[Token]>>(inputs: &[I]) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut group: Vec<usize> = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        if input.as_ref().len() < DEFAULT_SMALL_INPUT_THRESHOLD {
            group.push(i);
            if group.len() >= MAX_GROUP {
                units.push(std::mem::take(&mut group));
            }
        } else {
            if !group.is_empty() {
                units.push(std::mem::take(&mut group));
            }
            units.push(vec![i]);
        }
    }
    if !group.is_empty() {
        units.push(group);
    }
    units
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use crate::budget::AbortReason;
    use crate::Parser;
    use costar_grammar::{tokens, GrammarBuilder};

    fn fig2() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S").build().unwrap()
    }

    fn fig2_inputs(n: usize) -> Vec<Vec<Token>> {
        let g = fig2();
        let mut tab = g.symbols().clone();
        (0..n)
            .map(|i| {
                let mut w: Vec<(&str, &str)> = vec![("a", "a"); i % 7];
                w.push(("b", "b"));
                w.push(if i % 2 == 0 { ("c", "c") } else { ("d", "d") });
                tokens(&mut tab, &w)
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_parser_exactly() {
        let inputs = fig2_inputs(23);
        let mut seq = Parser::new(fig2());
        let expected: Vec<ParseOutcome> = inputs.iter().map(|w| seq.parse(w)).collect();
        for jobs in [1, 2, 8] {
            let batch = BatchParser::new(fig2()).with_jobs(jobs);
            let got = batch.parse_many(&inputs);
            assert_eq!(got.items.len(), inputs.len());
            for (item, want) in got.items.iter().zip(&expected) {
                assert_eq!(item.outcome(), want, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn deterministic_metrics_identical_across_worker_counts() {
        let inputs = fig2_inputs(17);
        let reference = BatchParser::new(fig2()).with_jobs(1).parse_many(&inputs);
        for jobs in [2, 8] {
            let got = BatchParser::new(fig2()).with_jobs(jobs).parse_many(&inputs);
            for (i, (a, b)) in reference.items.iter().zip(got.items.iter()).enumerate() {
                assert_eq!(
                    a.metrics.deterministic(),
                    b.metrics.deterministic(),
                    "input {i}, jobs={jobs}"
                );
            }
            assert_eq!(
                reference.metrics.deterministic(),
                got.metrics.deterministic(),
                "roll-up, jobs={jobs}"
            );
        }
    }

    #[test]
    fn rollup_metrics_equal_sum_of_items_and_reconcile() {
        let inputs = fig2_inputs(9);
        let r = BatchParser::new(fig2()).with_jobs(3).parse_many(&inputs);
        let mut manual = ParseMetrics::default();
        for item in &r.items {
            assert!(item.metrics.reconciles());
            manual.merge(&item.metrics);
        }
        assert_eq!(manual, r.metrics);
        assert!(r.metrics.reconciles());
        assert_eq!(r.metrics.tokens, inputs.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn exit_code_folding_severity_order() {
        let g = fig2();
        let mut tab = g.symbols().clone();
        let good = tokens(&mut tab, &[("b", "b"), ("c", "c")]);
        let bad = tokens(&mut tab, &[("b", "b")]); // rejected
        let batch = BatchParser::new(fig2()).with_jobs(2);
        assert_eq!(batch.parse_many(std::slice::from_ref(&good)).exit_code(), 0);
        assert_eq!(
            batch.parse_many(&[good.clone(), bad.clone()]).exit_code(),
            1
        );
        // A budget abort outranks a rejection.
        let strict = BatchParser::new(fig2())
            .with_jobs(2)
            .with_budget(Budget::unlimited().with_max_steps(1));
        let r = strict.parse_many(&[bad, good]);
        assert!(matches!(
            r.items[1].outcome(),
            ParseOutcome::Aborted(AbortReason::StepLimit { .. })
        ));
        assert_eq!(r.exit_code(), 3);
        // Recovered-with-errors folds to 4 and is outranked by nothing
        // worse here.
        let mut tab2 = batch.grammar().symbols().clone();
        let fixable = tokens(&mut tab2, &[("b", "b"), ("b", "b"), ("c", "c")]);
        let clean = tokens(&mut tab2, &[("b", "b"), ("d", "d")]);
        let r = batch.parse_many_recovering(&[clean, fixable]);
        assert_eq!(r.items[0].exit_code(), 0);
        assert_eq!(r.items[1].exit_code(), 4);
        assert!(!r.items[1].result_diagnostics_empty());
        assert_eq!(r.exit_code(), 4);
    }

    impl BatchItem {
        fn result_diagnostics_empty(&self) -> bool {
            match &self.result {
                BatchItemResult::Plain(_) => true,
                BatchItemResult::Recovered(r) => r.diagnostics.is_empty(),
            }
        }
    }

    #[test]
    fn recovering_batch_matches_sequential_recovering_parser() {
        let g = fig2();
        let mut tab = g.symbols().clone();
        let words: Vec<Vec<Token>> = vec![
            tokens(&mut tab, &[("b", "b"), ("c", "c")]),
            tokens(&mut tab, &[("a", "a"), ("b", "b")]),
            tokens(&mut tab, &[("b", "b"), ("b", "b"), ("d", "d")]),
            tokens(&mut tab, &[]),
        ];
        let mut seq = Parser::new(fig2());
        let expected: Vec<RecoveredParse> = words.iter().map(|w| seq.parse_recovering(w)).collect();
        for jobs in [1, 4] {
            let got = BatchParser::new(fig2())
                .with_jobs(jobs)
                .parse_many_recovering(&words);
            for (i, (item, want)) in got.items.iter().zip(&expected).enumerate() {
                let BatchItemResult::Recovered(r) = &item.result else {
                    panic!("expected recovered item");
                };
                assert_eq!(r, want, "input {i}, jobs={jobs}");
            }
        }
    }

    #[test]
    fn warm_cache_mode_is_deterministic_and_outcome_identical() {
        let inputs = fig2_inputs(15);
        let cold = BatchParser::new(fig2()).with_jobs(1).parse_many(&inputs);
        let warm1 = BatchParser::new(fig2())
            .with_warm_cache(true)
            .with_jobs(1)
            .parse_many(&inputs);
        let warm4 = BatchParser::new(fig2())
            .with_warm_cache(true)
            .with_jobs(4)
            .parse_many(&inputs);
        for i in 0..inputs.len() {
            assert_eq!(cold.items[i].outcome(), warm1.items[i].outcome());
            assert_eq!(
                warm1.items[i].metrics.deterministic(),
                warm4.items[i].metrics.deterministic(),
                "warm metrics must not depend on worker count (input {i})"
            );
        }
        // The warm snapshot turns repeat predictions into cache hits the
        // cold batch pays as misses.
        assert!(warm1.metrics.cache_hits >= cold.metrics.cache_hits);
    }

    #[test]
    fn small_inputs_group_and_large_inputs_stand_alone() {
        let g = fig2();
        let mut tab = g.symbols().clone();
        let small = tokens(&mut tab, &[("b", "b"), ("c", "c")]);
        let mut big_word: Vec<(&str, &str)> = vec![("a", "a"); 300];
        big_word.push(("b", "b"));
        big_word.push(("c", "c"));
        let big = tokens(&mut tab, &big_word);
        let inputs = vec![small.clone(), small.clone(), big, small];
        let units = plan_units(&inputs);
        assert_eq!(units, vec![vec![0, 1], vec![2], vec![3]]);
        // Grouping never changes results: batch items equal the
        // sequential parser's, one input at a time.
        let grouped = BatchParser::new(fig2()).with_jobs(2).parse_many(&inputs);
        let mut seq = Parser::new(fig2());
        for (item, word) in grouped.items.iter().zip(&inputs) {
            let (outcome, metrics) = seq.parse_with_metrics(word);
            assert_eq!(item.outcome(), &outcome);
            assert_eq!(item.metrics.deterministic(), metrics.deterministic());
        }
    }

    #[test]
    fn auto_steps_derives_per_input_fuel_from_the_cost_certificate() {
        let inputs = fig2_inputs(12);
        let batch = BatchParser::new(fig2())
            .with_jobs(2)
            // A 1-step shared fuel would abort everything; auto mode must
            // replace it with each input's own certified bound.
            .with_budget(Budget::unlimited().with_max_steps(1).with_auto_steps());
        let r = batch.parse_many(&inputs);
        for (i, item) in r.items.iter().enumerate() {
            assert!(
                item.outcome().is_accept(),
                "input {i} aborted under its certified bound"
            );
            let bound = batch.analysis().cost.bound_for(inputs[i].len() as u64);
            assert_eq!(item.metrics.predicted_steps, bound, "input {i}");
            assert_eq!(item.metrics.cost_checks, 1, "input {i}");
            assert_eq!(item.metrics.cost_violations, 0, "input {i}");
            assert!(item.metrics.meter_steps <= bound, "input {i}");
        }
        assert_eq!(r.metrics.cost_violations, 0);
        assert_eq!(r.metrics.cost_checks, inputs.len() as u64);
        // Auto fuel stays deterministic across worker counts.
        let seq = BatchParser::new(fig2())
            .with_jobs(1)
            .with_budget(Budget::unlimited().with_auto_steps())
            .parse_many(&inputs);
        for (a, b) in seq.items.iter().zip(r.items.iter()) {
            assert_eq!(a.metrics.deterministic(), b.metrics.deterministic());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let r = BatchParser::new(fig2()).parse_many(&Vec::<Vec<Token>>::new());
        assert!(r.items.is_empty());
        assert_eq!(r.exit_code(), 0);
        assert_eq!(r.metrics, ParseMetrics::default());
    }

    #[test]
    fn per_input_deadline_not_shared_across_batch() {
        // A batch whose first input aborts on deadline must still give
        // later inputs their full allowance: each parse's meter starts
        // its own clock (Budget::with_deadline batch semantics).
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["a", "S"]);
        gb.rule("S", &["b"]);
        let g = gb.start("S").build().unwrap();
        let mut tab = g.symbols().clone();
        let mut huge: Vec<(&str, &str)> = vec![("a", "a"); 5000];
        huge.push(("b", "b"));
        let slow = tokens(&mut tab, &huge);
        let quick = tokens(&mut tab, &[("a", "a"), ("b", "b")]);
        let batch = BatchParser::new(g)
            .with_jobs(1)
            .with_budget(Budget::unlimited().with_deadline(std::time::Duration::from_secs(30)));
        let r = batch.parse_many(&[slow, quick]);
        assert!(
            r.items[1].outcome().is_accept(),
            "the second input must not inherit a clock the first input ran down"
        );
    }
}
