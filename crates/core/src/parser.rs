//! The top-level parsing API (paper §3.1) and the one parse driver.
//!
//! The entry point mirrors the paper's `parse` function: it takes a
//! grammar, a start symbol (carried by the [`Grammar`] itself), and an
//! input word, and returns a [`ParseOutcome`] — a tree labeled `Unique` or
//! `Ambig`, a `Reject`, or an `Error` (the latter provably unreachable for
//! well-formed, non-left-recursive grammars).
//!
//! [`Parser`] is the reusable form: it shares the grammar and its
//! analyses behind `Arc`s and owns the SLL prediction cache. The published
//! CoStar rebuilds its cache for every input (paper §6.2); `Parser`
//! reproduces that policy by default and additionally offers cross-input
//! cache persistence — the optimization ANTLR uses and the paper measures
//! in Fig. 11 — via [`CachePolicy::Persistent`].
//!
//! Every parse, whatever its flavor — plain or recovering, one-shot,
//! edit-session reparse, or batch item — runs through one driver,
//! [`Parser::run`]. It resets the cache per the [`CachePolicy`], applies
//! the budget's cache caps, builds one budgeted [`Machine`] (which
//! resolves [`Budget::with_auto_steps`] fuel from the cost certificate),
//! and runs the machine's one step loop, recovering on rejection when
//! asked. The driver is also the crate's *panic-safe* boundary: any panic
//! raised below it (a bug in the parser, not in the caller's input) is
//! caught, the prediction cache is discarded, and the panic surfaces as a
//! typed [`ParseOutcome::Error`] with
//! [`ParseError::InvalidState`](crate::ParseError::InvalidState).
//! [`Parser::run_measured`] wraps it once more with the one
//! [`ParseMetrics`] stamp (input size and wall-clock time).

#![warn(clippy::disallowed_methods, clippy::disallowed_macros)]
use crate::budget::Budget;
use crate::error::ParseError;
use crate::machine::{Machine, ParseOutcome, PredictionMode};
use crate::observe::{MetricsObserver, NullObserver, ParseMetrics, ParseObserver};
use crate::prediction::cache::{CacheStats, SllCache};
use crate::recover::RecoveredParse;
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::{Grammar, NonTerminal, Token};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Where each parse's prediction cache starts.
#[derive(Debug, Clone)]
pub enum CachePolicy {
    /// Fresh cache per input — the published CoStar behavior (§6.2).
    PerInput,
    /// Persistent cache across inputs (the paper's §8 "reuse a cache
    /// across multiple inputs" extension; ANTLR's default behavior).
    Persistent,
    /// Every parse starts from a private clone of this snapshot: warm,
    /// yet independent of what the parser parsed before (the batch
    /// parser's warm-cache mode).
    Snapshot(Arc<SllCache>),
}

/// A reusable ALL(*) parser for one grammar.
///
/// # Examples
///
/// ```
/// use costar::{ParseOutcome, Parser};
/// use costar_grammar::{GrammarBuilder, Token};
///
/// let mut gb = GrammarBuilder::new();
/// gb.rule("S", &["A", "d"]);
/// gb.rule("S", &["A", "c"]);
/// gb.rule("A", &["a", "A"]);
/// gb.rule("A", &["b"]);
/// let g = gb.start("S").build()?;
///
/// let mut parser = Parser::new(g);
/// let tok = |n: &str| Token::new(parser.grammar().symbols().lookup_terminal(n).unwrap(), n);
/// let word = vec![tok("a"), tok("b"), tok("d")];
/// let ParseOutcome::Unique(tree) = parser.parse(&word) else {
///     panic!("expected a unique parse");
/// };
/// assert_eq!(tree.leaf_count(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Parser {
    grammar: Arc<Grammar>,
    analysis: Arc<GrammarAnalysis>,
    pub(crate) cache: SllCache,
    pub(crate) policy: CachePolicy,
    mode: PredictionMode,
    budget: Budget,
}

impl Parser {
    /// Creates a parser for `grammar`, computing its analyses. Like
    /// published CoStar, it starts every parse with an empty prediction
    /// cache.
    pub fn new(grammar: Grammar) -> Self {
        let analysis = GrammarAnalysis::compute(&grammar);
        Parser::with_analysis(grammar, analysis)
    }

    /// Creates a parser from a grammar and a **precomputed**
    /// [`GrammarAnalysis`] — e.g. one restored from the on-disk grammar
    /// cache (`costar_grammar::analysis::from_cache_json`), skipping the
    /// FIRST/FOLLOW/decision-table computation entirely. Either may be
    /// passed by value or as an already-shared `Arc`, so many parsers
    /// (the workers of a [`BatchParser`](crate::BatchParser)) can share
    /// one context.
    ///
    /// The analysis must have been computed (or validated, as the cache
    /// decoder does) against this exact grammar; pairing it with a
    /// different grammar produces undefined parse results (though never
    /// memory unsafety).
    pub fn with_analysis(
        grammar: impl Into<Arc<Grammar>>,
        analysis: impl Into<Arc<GrammarAnalysis>>,
    ) -> Self {
        let analysis = analysis.into();
        // The audit certificate bounds the SLL closure-graph size per
        // decision; pre-size the prediction cache to that estimate so the
        // warm-up phase of certificate-backed parsers avoids rehashing.
        let mut cache = SllCache::new();
        cache.reserve_states(analysis.audit.total_graph_states());
        Parser {
            grammar: grammar.into(),
            analysis,
            cache,
            policy: CachePolicy::PerInput,
            mode: PredictionMode::Adaptive,
            budget: Budget::unlimited(),
        }
    }

    /// The grammar this parser interprets.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The precomputed grammar analyses.
    pub fn analysis(&self) -> &GrammarAnalysis {
        &self.analysis
    }

    /// Is the grammar free of left recursion? When `true`, the paper's
    /// correctness theorems apply: this parser is a decision procedure for
    /// language membership, never returns [`ParseOutcome::Error`], and
    /// labels every returned tree correctly as unique or ambiguous.
    pub fn grammar_is_safe(&self) -> bool {
        self.analysis.left_recursion.is_grammar_safe()
    }

    /// The budget governing this parser's parses.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Replaces the budget for subsequent parses: every parse draws
    /// machine steps and prediction lookahead from the budget's fuel,
    /// honors its deadline and stack-depth limits (surfacing exhaustion as
    /// [`ParseOutcome::Aborted`]), and caps the SLL cache at its
    /// entry/byte limits (degrading by LRU eviction, never by abort).
    /// Cache caps take effect at the start of the next parse.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Sets the [`PredictionMode`] for subsequent parses — the ablation
    /// control: [`PredictionMode::LlOnly`] runs precise LL prediction at
    /// every decision (the "memoization off" arm), and
    /// [`PredictionMode::AdaptiveNoStatic`] disables the static LL(1)
    /// fast path. Outcomes are identical in every mode; only performance
    /// (and the prediction counters) differ.
    pub fn set_prediction_mode(&mut self, mode: PredictionMode) {
        self.mode = mode;
    }

    /// Sets where each subsequent parse's prediction cache starts (see
    /// [`CachePolicy`]).
    pub fn set_cache_policy(&mut self, policy: CachePolicy) {
        self.policy = policy;
    }

    /// Installs a deterministic [`FaultPlan`](crate::FaultPlan) on this
    /// parser's prediction cache (test-only; feature `faults`). The plan
    /// survives per-input cache clearing, so every parse replays the same
    /// fault schedule.
    #[cfg(feature = "faults")]
    pub fn install_fault_plan(&mut self, plan: crate::FaultPlan) {
        self.cache.install_fault_plan(plan);
    }

    /// Parses `word`, starting from the grammar's start symbol. Like every
    /// entry point, this runs through [`Parser::run`], the panic-safe
    /// boundary.
    pub fn parse(&mut self, word: &[Token]) -> ParseOutcome {
        self.run(word, false, &mut NullObserver).outcome
    }

    /// Parses `word` while measuring it: the outcome together with the
    /// full [`ParseMetrics`] — counters, latency histograms, input size,
    /// and wall-clock time.
    pub fn parse_with_metrics(&mut self, word: &[Token]) -> (ParseOutcome, ParseMetrics) {
        let (recovered, metrics, _) = self.run_measured(word, false, NullObserver);
        (recovered.outcome, metrics)
    }

    /// Parses `word` with syntax-error recovery: instead of stopping at
    /// the first rejection, the parser panic-mode resynchronizes (skipping
    /// tokens and/or abandoning open productions, guided by the grammar's
    /// precomputed sync sets), splices [`costar_grammar::Tree::Error`]
    /// nodes into the tree, and keeps going — collecting one
    /// [`Diagnostic`](crate::Diagnostic) per error.
    ///
    /// On a word the grammar accepts, this takes the byte-identical step
    /// sequence as [`Parser::parse`] and returns the identical tree with
    /// zero diagnostics (the `H-RECOVER-SOUND` property). The number of
    /// recoveries is capped by
    /// [`Budget::with_max_recoveries`](crate::Budget::with_max_recoveries);
    /// exceeding the cap aborts with
    /// [`AbortReason::RecoveryLimit`](crate::AbortReason::RecoveryLimit).
    pub fn parse_recovering(&mut self, word: &[Token]) -> RecoveredParse {
        self.run(word, true, &mut NullObserver)
    }

    /// [`Parser::parse_recovering`] with the full [`ParseMetrics`]
    /// (including the `recoveries` / `tokens_skipped` counters).
    pub fn parse_recovering_with_metrics(
        &mut self,
        word: &[Token],
    ) -> (RecoveredParse, ParseMetrics) {
        let (recovered, metrics, _) = self.run_measured(word, true, NullObserver);
        (recovered, metrics)
    }

    /// The one parse driver: every other entry point is a wrapper. Parses
    /// `word` with `obs` receiving every parse event — and, when
    /// `recover` is set, resynchronizes past syntax errors as
    /// [`Parser::parse_recovering`] describes (firing the
    /// [`Event::Recovery`](crate::Event::Recovery) and
    /// [`Event::ResyncSkip`](crate::Event::ResyncSkip) events as well). Without
    /// `recover`, the result carries the plain outcome and no diagnostics.
    ///
    /// The observer is monomorphized in: with [`NullObserver`] every event
    /// compiles away. A panic anywhere below (which for a well-formed
    /// grammar indicates a parser bug, never a property of the input) is
    /// caught, the possibly-inconsistent prediction cache is discarded,
    /// and the result is [`ParseOutcome::Error`] rather than an unwinding
    /// panic.
    pub fn run<O: ParseObserver>(
        &mut self,
        word: &[Token],
        recover: bool,
        obs: &mut O,
    ) -> RecoveredParse {
        match &self.policy {
            CachePolicy::PerInput => self.cache.clear(),
            CachePolicy::Persistent => {}
            CachePolicy::Snapshot(snapshot) => self.cache.clone_from(snapshot),
        }
        self.cache.set_capacity(
            self.budget.max_cache_entries(),
            self.budget.max_cache_bytes(),
        );
        let result = catch_unwind(AssertUnwindSafe(|| {
            Machine::with_budget(&self.grammar, &self.analysis, word, self.mode, &self.budget)
                .multistep(&mut self.cache, obs, recover)
        }));
        result.unwrap_or_else(|payload| {
            // The panic may have interrupted a cache mutation; drop
            // everything cached so the parser stays usable (this is what
            // makes the AssertUnwindSafe above sound).
            self.cache.clear();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            RecoveredParse {
                error_tree: None,
                diagnostics: Vec::new(),
                outcome: ParseOutcome::Error(ParseError::invalid_state(format!(
                    "panic during parse: {msg}"
                ))),
            }
        })
    }

    /// [`Parser::run`] under a [`MetricsObserver`] paired with `extra`
    /// (pass [`NullObserver`] for none, or e.g. a
    /// [`TraceObserver`](crate::TraceObserver)): returns the parse, its
    /// [`ParseMetrics`] stamped with the input size and wall-clock time,
    /// and `extra` back.
    pub fn run_measured<O: ParseObserver>(
        &mut self,
        word: &[Token],
        recover: bool,
        extra: O,
    ) -> (RecoveredParse, ParseMetrics, O) {
        measured(extra, |obs| (self.run(word, recover, obs), word.len()))
    }

    /// SLL cache effectiveness counters (non-zero across calls only with
    /// [`CachePolicy::Persistent`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Nonterminal lookup convenience.
    pub fn nonterminal(&self, name: &str) -> Option<NonTerminal> {
        self.grammar.symbols().lookup_nonterminal(name)
    }
}

/// The one [`ParseMetrics`] stamp: runs `run` under a fresh
/// [`MetricsObserver`] paired with `extra`, then records the input size
/// `run` reports and the wall-clock time it took.
pub(crate) fn measured<O: ParseObserver, T>(
    extra: O,
    run: impl FnOnce(&mut (MetricsObserver, O)) -> (T, usize),
) -> (T, ParseMetrics, O) {
    let mut obs = (MetricsObserver::new(), extra);
    let start = Instant::now();
    let (out, tokens) = run(&mut obs);
    let (metrics, extra) = obs;
    let mut metrics = metrics.into_metrics();
    metrics.total_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    metrics.tokens = tokens;
    (out, metrics, extra)
}

/// One-shot convenience: parses `word` with grammar `g` from its start
/// symbol, with a fresh prediction cache (the paper's top-level `parse`).
///
/// For repeated parsing, build a [`Parser`] instead so the grammar
/// analyses are computed once.
///
/// # Examples
///
/// ```
/// use costar::{parse, ParseOutcome};
/// use costar_grammar::{GrammarBuilder, Token};
///
/// let mut gb = GrammarBuilder::new();
/// gb.rule("S", &["a"]);
/// let g = gb.start("S").build()?;
/// let a = g.symbols().lookup_terminal("a").unwrap();
/// assert!(matches!(parse(&g, &[Token::new(a, "a")]), ParseOutcome::Unique(_)));
/// assert!(matches!(parse(&g, &[]), ParseOutcome::Reject(_)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse(g: &Grammar, word: &[Token]) -> ParseOutcome {
    Parser::new(g.clone()).parse(word)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use costar_grammar::{tokens, GrammarBuilder};

    fn fig2_parser() -> Parser {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        Parser::new(gb.start("S").build().unwrap())
    }

    #[test]
    fn parser_is_reusable() {
        let mut p = fig2_parser();
        let mut tab = p.grammar().symbols().clone();
        let w1 = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        let w2 = tokens(&mut tab, &[("b", "b"), ("c", "c")]);
        assert!(p.parse(&w1).is_accept());
        assert!(p.parse(&w2).is_accept());
        assert!(!p.parse(&w1[..1]).is_accept());
        // Per-input policy: cache is cleared before each parse, so stats
        // reflect only the last word.
        assert!(p.grammar_is_safe());
    }

    #[test]
    fn cache_reuse_accumulates_hits() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        let g = gb.start("S").build().unwrap();
        let mut p = Parser::new(g);
        p.set_cache_policy(CachePolicy::Persistent);
        let mut tab = p.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        assert!(p.parse(&w).is_accept());
        let first = p.cache_stats();
        assert!(p.parse(&w).is_accept());
        let second = p.cache_stats();
        assert_eq!(
            first.misses, second.misses,
            "a warmed cache answers repeat predictions without new computation"
        );
        assert!(second.hits > first.hits);
        assert_eq!(first.states, second.states);
    }

    #[test]
    fn per_input_policy_resets_cache() {
        let mut p = fig2_parser();
        let mut tab = p.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        assert!(p.parse(&w).is_accept());
        let s1 = p.cache_stats();
        assert!(p.parse(&w).is_accept());
        let s2 = p.cache_stats();
        assert_eq!(s1.misses, s2.misses, "identical runs from cold caches");
        assert_eq!(s1.hits, s2.hits);
    }

    #[test]
    fn one_shot_parse_matches_parser() {
        let mut p = fig2_parser();
        let mut tab = p.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("b", "b"), ("d", "d")]);
        let one_shot = parse(p.grammar(), &w);
        let reusable = p.parse(&w);
        assert!(one_shot.is_accept() && reusable.is_accept());
        assert_eq!(one_shot.tree(), reusable.tree());
    }

    #[test]
    fn unsafe_grammar_reported() {
        let mut gb = GrammarBuilder::new();
        gb.rule("E", &["E", "x"]);
        gb.rule("E", &["y"]);
        let p = Parser::new(gb.start("E").build().unwrap());
        assert!(!p.grammar_is_safe());
    }

    #[test]
    fn nonterminal_lookup() {
        let p = fig2_parser();
        assert!(p.nonterminal("S").is_some());
        assert!(p.nonterminal("Z").is_none());
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod budget_tests {
    use super::*;
    use crate::budget::AbortReason;
    use costar_grammar::{tokens, GrammarBuilder};

    fn fig2() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S").build().unwrap()
    }

    #[test]
    fn tight_step_budget_aborts_and_recovers() {
        let mut p = Parser::new(fig2());
        p.set_budget(Budget::unlimited().with_max_steps(2));
        let mut tab = p.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        let ParseOutcome::Aborted(AbortReason::StepLimit { limit: 2 }) = p.parse(&w) else {
            panic!("expected a step-limit abort");
        };
        // An abort is not sticky: a bigger budget resolves the same input.
        p.set_budget(Budget::unlimited());
        assert!(p.parse(&w).is_accept());
    }

    #[test]
    fn derived_budget_admits_every_valid_parse() {
        let g = fig2();
        let mut tab = g.symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("a", "a"), ("b", "b"), ("c", "c")]);
        let budget = Budget::derived(&g, w.len());
        let mut p = Parser::new(g);
        p.set_budget(budget);
        assert!(
            p.parse(&w).is_accept(),
            "the derived fuel bound must admit any terminating parse"
        );
    }

    #[test]
    fn stack_depth_limit_aborts_deep_nesting() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["a", "S"]);
        gb.rule("S", &["b"]);
        let g = gb.start("S").build().unwrap();
        let mut p = Parser::new(g);
        p.set_budget(Budget::unlimited().with_max_stack_depth(8));
        let mut tab = p.grammar().symbols().clone();
        let mut word: Vec<(&str, &str)> = vec![("a", "a"); 32];
        word.push(("b", "b"));
        let w = tokens(&mut tab, &word);
        let ParseOutcome::Aborted(AbortReason::StackDepth { limit: 8, .. }) = p.parse(&w) else {
            panic!("expected a stack-depth abort");
        };
        // Shallow input fits under the same limit.
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b")]);
        assert!(p.parse(&w).is_accept());
    }

    #[test]
    fn cache_caps_degrade_without_changing_outcomes() {
        let mut p = Parser::new(fig2());
        p.set_budget(Budget::unlimited().with_max_cache_entries(2));
        let mut tab = p.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("a", "a"), ("b", "b"), ("d", "d")]);
        assert!(p.parse(&w).is_accept());
        let stats = p.cache_stats();
        assert!(
            stats.states <= 2,
            "cap not enforced: {} states",
            stats.states
        );
    }

    #[test]
    fn zero_cache_cap_disables_cache_without_changing_outcomes() {
        // Deeply nested input under `--cache-cap 0`: prediction must
        // degrade to cache-off (every lookup a miss, no eviction churn,
        // nothing pinned) and produce the same tree as an unbounded run.
        let mut gb = GrammarBuilder::new();
        gb.rule("V", &["[", "V", "]"]);
        gb.rule("V", &["a"]);
        let g = gb.start("V").build().unwrap();
        let mut tab = g.symbols().clone();
        let mut word: Vec<(&str, &str)> = vec![("[", "["); 40];
        word.push(("a", "a"));
        word.extend(std::iter::repeat_n(("]", "]"), 40));
        let w = tokens(&mut tab, &word);

        let mut unbounded = Parser::new(g.clone());
        let expected = unbounded.parse(&w);
        assert!(expected.is_accept());

        // This grammar is LL(1), so the static fast path would bypass the
        // cache entirely; disable it so the test exercises cache-off
        // degradation of real SLL simulation.
        let mut capped = Parser::new(g);
        capped.set_prediction_mode(PredictionMode::AdaptiveNoStatic);
        capped.set_budget(Budget::unlimited().with_max_cache_entries(0));
        let got = capped.parse(&w);
        assert_eq!(expected.tree(), got.tree());
        let stats = capped.cache_stats();
        assert_eq!(stats.hits, 0, "a disabled cache can never hit");
        assert!(stats.misses > 0);
        assert_eq!(stats.evictions, 0, "cache-off must not churn evictions");
        assert_eq!(stats.transitions, 0);
        assert!(
            stats.states <= 2,
            "only in-flight scratch states may be resident, got {}",
            stats.states
        );
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod metrics_tests {
    use super::*;
    use crate::budget::AbortReason;
    use crate::observe::TraceObserver;
    use costar_grammar::{tokens, GrammarBuilder};

    fn fig2() -> Grammar {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        gb.start("S").build().unwrap()
    }

    #[test]
    fn parse_with_metrics_reconciles_with_the_meter() {
        let mut p = Parser::new(fig2());
        let mut tab = p.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        let (outcome, m) = p.parse_with_metrics(&w);
        assert!(outcome.is_accept());
        assert!(m.reconciles(), "metrics must reconcile: {m:?}");
        assert_eq!(m.machine_steps, 10);
        assert_eq!(m.consumes, 3);
        assert_eq!(m.pushes, 3);
        assert_eq!(m.returns, 3);
        assert_eq!(m.decisions, 3);
        // Both A decisions dispatch through the static LL(1) fast path;
        // only the S decision (SLL-safe but not LL(1)) runs SLL simulation.
        assert_eq!(m.sll_resolved, 1);
        assert_eq!(m.static_fast_path_hits, 2);
        assert_eq!(m.failovers, 0);
        assert_eq!(m.tokens, 3);
        assert!(m.total_nanos > 0);
        assert_eq!(m.abort, None);
        // The observer's cache counts mirror the cache's own counters
        // exactly (per-input policy: both cover this parse only).
        let cs = p.cache_stats();
        assert_eq!(m.cache_hits, cs.hits);
        assert_eq!(m.cache_misses, cs.misses);
        assert_eq!(m.cache_evictions, cs.evictions);
    }

    #[test]
    fn aborted_parse_metrics_still_reconcile() {
        let mut p = Parser::new(fig2());
        p.set_budget(Budget::unlimited().with_max_steps(2));
        let mut tab = p.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        let (outcome, m) = p.parse_with_metrics(&w);
        assert!(matches!(outcome, ParseOutcome::Aborted(_)));
        assert_eq!(m.abort, Some(AbortReason::StepLimit { limit: 2 }));
        assert!(m.reconciles(), "aborted metrics must reconcile: {m:?}");
        assert_eq!(m.meter_steps, 2);
    }

    #[test]
    fn paired_observers_both_see_the_parse() {
        let mut p = Parser::new(fig2());
        let mut tab = p.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        let mut pair = (MetricsObserver::new(), TraceObserver::new(16));
        assert!(p.run(&w, false, &mut pair).is_clean());
        assert_eq!(pair.0.metrics().machine_steps, 10);
        assert!(pair.1.total_events() > 0);
        let dump = pair.1.dump(Some(p.grammar().symbols()));
        assert!(dump.contains("predict Sll start S"));
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod decision_metrics_tests {
    use super::*;
    use costar_grammar::{tokens, GrammarBuilder};

    #[test]
    fn fig2_decisions_counted() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        let mut p = Parser::new(gb.start("S").build().unwrap());
        let mut tab = p.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);
        let (outcome, m) = p.parse_with_metrics(&w);
        assert!(outcome.is_accept());
        // Three pushes: S, A, A — all multi-alternative. The two A
        // decisions are LL(1) and resolve via the static fast path; S is
        // SLL-safe but not LL(1), so it alone runs SLL simulation.
        assert_eq!(m.decisions, 3);
        assert_eq!(m.sll_resolved, 1);
        assert_eq!(m.static_fast_path_hits, 2);
        assert_eq!(m.failovers, 0);
        assert_eq!(m.single_alternative, 0);
        // Deciding S scans to the very end of "abd".
        assert_eq!(m.lookahead_depth.max(), 3);
        assert!(m.lookahead_depth.mean() >= 1.0);
    }

    #[test]
    fn failover_counted() {
        // The SLL-conflict grammar from the prediction tests.
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["p", "C1"]);
        gb.rule("S", &["q", "C2"]);
        gb.rule("C1", &["X", "b"]);
        gb.rule("C2", &["X", "a", "b"]);
        gb.rule("X", &["a", "a"]);
        gb.rule("X", &["a"]);
        let mut p = Parser::new(gb.start("S").build().unwrap());
        let mut tab = p.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("q", "q"), ("a", "a"), ("a", "a"), ("b", "b")]);
        let (outcome, m) = p.parse_with_metrics(&w);
        assert!(outcome.is_accept());
        assert_eq!(m.failovers, 1, "the X decision must fail over to LL");
        assert_eq!(m.single_alternative, 1, "C2's push short-circuits");
        assert!(m.decisions >= 2);
        // S is LL(1) on its leading terminal (p vs q), so it dispatches
        // statically; only X runs simulation (and fails over).
        assert_eq!(m.static_fast_path_hits, 1);
        assert_eq!(m.sll_resolved, 0);
    }

    #[test]
    fn no_static_fast_path_mode_matches_outcome_without_fast_path_hits() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "c"]);
        gb.rule("S", &["A", "d"]);
        gb.rule("A", &["a", "A"]);
        gb.rule("A", &["b"]);
        let g = gb.start("S").build().unwrap();
        let mut tab = g.symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("b", "b"), ("d", "d")]);

        let mut fast = Parser::new(g.clone());
        let (fast_outcome, fast_m) = fast.parse_with_metrics(&w);
        let mut full = Parser::new(g);
        full.set_prediction_mode(PredictionMode::AdaptiveNoStatic);
        let (full_outcome, full_m) = full.parse_with_metrics(&w);

        assert_eq!(fast_outcome.tree(), full_outcome.tree());
        assert_eq!(fast_m.static_fast_path_hits, 2);
        assert_eq!(full_m.static_fast_path_hits, 0);
        assert_eq!(full_m.sll_resolved, 3, "all decisions simulate");
    }

    #[test]
    fn single_alternative_short_circuits_counted() {
        let mut gb = GrammarBuilder::new();
        gb.rule("S", &["A", "A"]);
        gb.rule("A", &["a"]);
        let mut p = Parser::new(gb.start("S").build().unwrap());
        let mut tab = p.grammar().symbols().clone();
        let w = tokens(&mut tab, &[("a", "a"), ("a", "a")]);
        let (outcome, m) = p.parse_with_metrics(&w);
        assert!(outcome.is_accept());
        assert_eq!(m.decisions, 0);
        assert_eq!(m.single_alternative, 3); // S, A, A
        assert_eq!(m.lookahead_depth.mean(), 0.0);
    }
}
