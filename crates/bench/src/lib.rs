//! # costar-bench — the evaluation harness (paper §6)
//!
//! One function per table/figure of the paper's evaluation, each
//! returning a structured result that renders as a paper-style table:
//!
//! * [`fig8`] — grammar sizes and data-set sizes (Fig. 8);
//! * [`fig9`] — input size vs CoStar parse time, with least-squares and
//!   LOWESS linearity evidence (Fig. 9);
//! * [`fig10`] — CoStar slowdown relative to the `AntlrSim` baseline,
//!   parse-only and in a lexing/parsing pipeline (Fig. 10);
//! * [`fig11`] — the cache-warm-up effect on the Python baseline
//!   (Fig. 11);
//! * [`ablation_sll_cache`], [`ablation_cache_reuse`],
//!   [`ablation_grammar_size`] — ablations for the design choices
//!   DESIGN.md calls out.
//!
//! The `figures` binary prints any of them; the Criterion benches in
//! `benches/` wrap the same workloads for statistically disciplined
//! timing.

#![warn(missing_docs)]

use costar::{
    BatchParser, CachePolicy, Edit, EditSession, ParseMetrics, ParseOutcome, Parser, PredictionMode,
};
use costar_baselines::{earley_parse, AntlrSim};
use costar_grammar::analysis::{
    parse_cert_json, replay_certificate, to_cert_json, AuditTable, DecisionTable, GrammarAnalysis,
};
use costar_grammar::json::{self, Fixed};
use costar_grammar::{Grammar, GrammarBuilder, Token};
use costar_langs::{all_languages, corpus, Language};
use costar_stats::{linear_fit, lowess, ratio_stats, LinearFit};
use std::fmt;
use std::hint::black_box;
use std::time::Instant;

/// Corpus and trial sizing for the experiments.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Files per language corpus.
    pub files: usize,
    /// Size knob of the largest file (roughly its token count).
    pub max_size: usize,
    /// Timing trials per measurement (the paper averaged five).
    pub trials: usize,
}

impl Config {
    /// Small sizes for CI and `cargo bench` smoke runs.
    pub fn quick() -> Config {
        Config {
            files: 8,
            max_size: 2_000,
            trials: 2,
        }
    }

    /// The default experiment scale (minutes of wall-clock overall).
    pub fn standard() -> Config {
        Config {
            files: 16,
            max_size: 10_000,
            trials: 5,
        }
    }
}

/// Times `f` over `trials` runs and returns the average seconds.
pub fn time_avg<R>(trials: usize, mut f: impl FnMut() -> R) -> f64 {
    let trials = trials.max(1);
    let start = Instant::now();
    for _ in 0..trials {
        black_box(f());
    }
    start.elapsed().as_secs_f64() / trials as f64
}

/// One language's prepared corpus: sources and token words.
pub struct PreparedCorpus {
    /// The language.
    pub lang: Language,
    /// Generated source files (ascending size).
    pub sources: Vec<String>,
    /// Tokenized words, one per source file.
    pub words: Vec<Vec<Token>>,
}

/// Generates and tokenizes the corpus for every language.
///
/// # Panics
///
/// Panics if a generated file fails to lex — that would be a generator
/// or lexer bug, not a measurement outcome.
pub fn prepare_corpora(cfg: &Config) -> Vec<PreparedCorpus> {
    all_languages()
        .into_iter()
        .map(|(lang, generate)| {
            let sources = corpus(generate, 0xC057A6, cfg.files, cfg.max_size);
            let words = sources
                .iter()
                .map(|s| {
                    lang.tokenize(s)
                        .unwrap_or_else(|e| panic!("{}: corpus file fails to lex: {e}", lang.name))
                })
                .collect();
            PreparedCorpus {
                lang,
                sources,
                words,
            }
        })
        .collect()
}

fn expect_unique(lang: &str, outcome: &ParseOutcome) {
    assert!(
        matches!(outcome, ParseOutcome::Unique(_)),
        "{lang}: benchmark file did not parse uniquely: {outcome:?}"
    );
}

// ---------------------------------------------------------------------
// Fig. 8
// ---------------------------------------------------------------------

/// One row of the Fig. 8 table.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Language name.
    pub name: &'static str,
    /// Terminal count of the desugared grammar.
    pub terminals: usize,
    /// Nonterminal count.
    pub nonterminals: usize,
    /// Production count.
    pub productions: usize,
    /// Number of corpus files.
    pub files: usize,
    /// Total corpus size in megabytes.
    pub megabytes: f64,
    /// Total corpus size in tokens.
    pub tokens: usize,
}

/// The Fig. 8 reproduction: grammar and data-set sizes per benchmark.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// One row per language.
    pub rows: Vec<Fig8Row>,
}

/// Reproduces Fig. 8: measures of grammar size and data-set size.
pub fn fig8(cfg: &Config) -> Fig8 {
    let rows = prepare_corpora(cfg)
        .into_iter()
        .map(|c| {
            let (t, n, p) = c.lang.grammar_stats();
            Fig8Row {
                name: c.lang.name,
                terminals: t,
                nonterminals: n,
                productions: p,
                files: c.sources.len(),
                megabytes: c.sources.iter().map(String::len).sum::<usize>() as f64 / 1e6,
                tokens: c.words.iter().map(Vec::len).sum(),
            }
        })
        .collect();
    Fig8 { rows }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 8: grammar size and data set size per benchmark")?;
        writeln!(
            f,
            "{:<10} {:>5} {:>5} {:>5} {:>8} {:>8} {:>10}",
            "Benchmark", "|T|", "|N|", "|P|", "# files", "MB", "tokens"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>5} {:>5} {:>5} {:>8} {:>8.3} {:>10}",
                r.name, r.terminals, r.nonterminals, r.productions, r.files, r.megabytes, r.tokens
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fig. 9
// ---------------------------------------------------------------------

/// Linearity evidence for one language (one Fig. 9 panel).
#[derive(Debug, Clone)]
pub struct Fig9Panel {
    /// Language name.
    pub name: &'static str,
    /// (tokens, seconds) per file, ascending tokens.
    pub points: Vec<(usize, f64)>,
    /// The least-squares fit of seconds against tokens.
    pub fit: Option<LinearFit>,
    /// Maximum relative deviation of the LOWESS curve from the fit — the
    /// paper's linearity criterion is that this stays small.
    pub lowess_deviation: f64,
    /// Mean throughput in tokens per second.
    pub tokens_per_sec: f64,
}

/// The Fig. 9 reproduction.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// One panel per language.
    pub panels: Vec<Fig9Panel>,
}

/// Reproduces Fig. 9: input size vs CoStar parse time per language, with
/// regression + LOWESS linearity evidence. Every file must parse
/// `Unique` (the §6.1 claim).
pub fn fig9(cfg: &Config) -> Fig9 {
    let panels = prepare_corpora(cfg)
        .into_iter()
        .map(|c| {
            let mut parser = Parser::new(c.lang.grammar().clone());
            let mut points: Vec<(usize, f64)> = c
                .words
                .iter()
                .map(|w| {
                    expect_unique(c.lang.name, &parser.parse(w));
                    let secs = time_avg(cfg.trials, || parser.parse(w));
                    (w.len(), secs)
                })
                .collect();
            points.sort_by_key(|&(n, _)| n);
            let xs: Vec<f64> = points.iter().map(|&(n, _)| n as f64).collect();
            let ys: Vec<f64> = points.iter().map(|&(_, s)| s).collect();
            let fit = linear_fit(&xs, &ys);
            let lowess_deviation = match &fit {
                Some(fit) if xs.len() >= 4 => {
                    // Small corpora need a wider LOWESS window than the
                    // paper's f = 0.1 (which presumes hundreds of files).
                    let f_param = (0.1f64).max(4.0 / xs.len() as f64).min(1.0);
                    let smooth = lowess(&xs, &ys, f_param);
                    let fitted: Vec<f64> = xs.iter().map(|&x| fit.predict(x)).collect();
                    // Normalize by the fitted range rather than pointwise
                    // (pointwise deviation explodes near the origin where
                    // fixed per-parse overhead dominates tiny files).
                    let scale = fitted.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-12);
                    smooth
                        .iter()
                        .zip(&fitted)
                        .map(|(s, l)| (s - l).abs() / scale)
                        .fold(0.0, f64::max)
                }
                _ => 0.0,
            };
            let total_tokens: usize = points.iter().map(|&(n, _)| n).sum();
            let total_secs: f64 = ys.iter().sum();
            Fig9Panel {
                name: c.lang.name,
                points,
                fit,
                lowess_deviation,
                tokens_per_sec: total_tokens as f64 / total_secs.max(1e-12),
            }
        })
        .collect();
    Fig9 { panels }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 9: input size vs CoStar parse time (linearity)")?;
        writeln!(
            f,
            "{:<10} {:>7} {:>14} {:>8} {:>12} {:>12}",
            "Benchmark", "files", "slope(us/tok)", "R^2", "LOWESS dev", "tokens/sec"
        )?;
        for p in &self.panels {
            let (slope, r2) = p
                .fit
                .map_or((f64::NAN, f64::NAN), |fit| (fit.slope * 1e6, fit.r_squared));
            writeln!(
                f,
                "{:<10} {:>7} {:>14.3} {:>8.4} {:>11.1}% {:>12.0}",
                p.name,
                p.points.len(),
                slope,
                r2,
                p.lowess_deviation * 100.0,
                p.tokens_per_sec
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fig. 10
// ---------------------------------------------------------------------

/// One language's slowdown bars.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Language name.
    pub name: &'static str,
    /// CoStar slowdown w.r.t. the AntlrSim parser (mean, std dev).
    pub parser_slowdown: (f64, f64),
    /// (lexer, CoStar) pipeline slowdown w.r.t. (lexer, AntlrSim).
    pub pipeline_slowdown: (f64, f64),
}

/// The Fig. 10 reproduction.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// One row per language.
    pub rows: Vec<Fig10Row>,
}

/// Reproduces Fig. 10: CoStar's average slowdown relative to the ANTLR
/// stand-in, parse-only and as a lexing/parsing pipeline.
///
/// Per the paper's §6.2 methodology, the baseline parser starts each
/// trial with an empty cache ("in each ANTLR parser trial, we
/// instantiated a new parser with an empty cache because CoStar does not
/// currently offer a way to reuse a cache across multiple inputs"), and
/// lexing time is measured separately and added to both pipelines.
pub fn fig10(cfg: &Config) -> Fig10 {
    let rows = prepare_corpora(cfg)
        .into_iter()
        .map(|c| {
            let mut costar = Parser::new(c.lang.grammar().clone());
            let mut antlr = AntlrSim::with_cold_cache(c.lang.grammar().clone());
            let mut costar_secs = Vec::new();
            let mut antlr_secs = Vec::new();
            let mut lex_secs = Vec::new();
            for (src, w) in c.sources.iter().zip(&c.words) {
                expect_unique(c.lang.name, &costar.parse(w));
                assert!(
                    antlr.parse(w).is_accept(),
                    "{}: baseline rejects",
                    c.lang.name
                );
                costar_secs.push(time_avg(cfg.trials, || costar.parse(w)));
                antlr_secs.push(time_avg(cfg.trials, || antlr.parse(w)));
                lex_secs.push(time_avg(cfg.trials, || c.lang.tokenize(src)));
            }
            let parser = ratio_stats(&costar_secs, &antlr_secs);
            let pipe_costar: Vec<f64> = costar_secs
                .iter()
                .zip(&lex_secs)
                .map(|(p, l)| p + l)
                .collect();
            let pipe_antlr: Vec<f64> = antlr_secs
                .iter()
                .zip(&lex_secs)
                .map(|(p, l)| p + l)
                .collect();
            let pipeline = ratio_stats(&pipe_costar, &pipe_antlr);
            Fig10Row {
                name: c.lang.name,
                parser_slowdown: (parser.mean, parser.std_dev),
                pipeline_slowdown: (pipeline.mean, pipeline.std_dev),
            }
        })
        .collect();
    Fig10 { rows }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 10: CoStar average slowdown vs AntlrSim")?;
        writeln!(
            f,
            "{:<10} {:>22} {:>26}",
            "Benchmark", "parser slowdown", "lex+parse pipeline"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>14.2}x ± {:<5.2} {:>18.2}x ± {:<5.2}",
                r.name,
                r.parser_slowdown.0,
                r.parser_slowdown.1,
                r.pipeline_slowdown.0,
                r.pipeline_slowdown.1
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fig. 11
// ---------------------------------------------------------------------

/// One Python corpus file's cold vs warm timing.
#[derive(Debug, Clone)]
pub struct Fig11Point {
    /// File size in tokens.
    pub tokens: usize,
    /// Per-kilotoken parse time with a cold (per-file) cache.
    pub cold_ms_per_ktok: f64,
    /// Per-kilotoken parse time with a pre-warmed persistent cache.
    pub warm_ms_per_ktok: f64,
}

/// The Fig. 11 reproduction.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Per-file cold/warm timings, ascending size.
    pub points: Vec<Fig11Point>,
    /// Ratio of smallest-file to largest-file cold per-token cost: values
    /// well above 1 reproduce the paper's "performance improves slightly
    /// as file size increases" observation for the cold parser.
    pub cold_small_over_large: f64,
    /// The same ratio for the warmed parser: near 1 reproduces "this
    /// slight nonlinear effect disappears".
    pub warm_small_over_large: f64,
}

/// Reproduces Fig. 11: the AntlrSim Python parser with and without cache
/// warm-up.
pub fn fig11(cfg: &Config) -> Fig11 {
    let c = prepare_corpora(cfg)
        .into_iter()
        .find(|c| c.lang.name == "Python")
        .expect("Python corpus");
    let mut cold = AntlrSim::with_cold_cache(c.lang.grammar().clone());
    let mut warm = AntlrSim::new(c.lang.grammar().clone());
    warm.warm_up(&c.words);

    let mut points: Vec<Fig11Point> = c
        .words
        .iter()
        .map(|w| {
            let ktok = w.len() as f64 / 1e3;
            let cold_secs = time_avg(cfg.trials, || cold.parse(w));
            let warm_secs = time_avg(cfg.trials, || warm.parse(w));
            Fig11Point {
                tokens: w.len(),
                cold_ms_per_ktok: cold_secs * 1e3 / ktok,
                warm_ms_per_ktok: warm_secs * 1e3 / ktok,
            }
        })
        .collect();
    points.sort_by_key(|p| p.tokens);
    let first = points.first().cloned();
    let last = points.last().cloned();
    let (cold_ratio, warm_ratio) = match (first, last) {
        (Some(a), Some(b)) if b.cold_ms_per_ktok > 0.0 && b.warm_ms_per_ktok > 0.0 => (
            a.cold_ms_per_ktok / b.cold_ms_per_ktok,
            a.warm_ms_per_ktok / b.warm_ms_per_ktok,
        ),
        _ => (1.0, 1.0),
    };
    Fig11 {
        points,
        cold_small_over_large: cold_ratio,
        warm_small_over_large: warm_ratio,
    }
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 11: AntlrSim Python parser, cold vs warmed cache")?;
        writeln!(
            f,
            "{:>10} {:>18} {:>18}",
            "tokens", "cold ms/ktok", "warm ms/ktok"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>10} {:>18.3} {:>18.3}",
                p.tokens, p.cold_ms_per_ktok, p.warm_ms_per_ktok
            )?;
        }
        writeln!(
            f,
            "small/large per-token cost: cold {:.2}x, warm {:.2}x",
            self.cold_small_over_large, self.warm_small_over_large
        )
    }
}

// ---------------------------------------------------------------------
// Prediction profile (§3.4 in practice)
// ---------------------------------------------------------------------

/// How prediction behaved on one language's corpus.
#[derive(Debug, Clone)]
pub struct PredictionProfileRow {
    /// Language name.
    pub name: &'static str,
    /// Multi-alternative decisions.
    pub decisions: u64,
    /// Single-alternative short-circuits.
    pub single_alternative: u64,
    /// Decisions dispatched through the static LL(1) lookahead map.
    pub static_fast_path_hits: u64,
    /// Fraction of simulated decisions SLL resolved without failover.
    pub sll_fraction: f64,
    /// LL failovers.
    pub failovers: u64,
    /// Mean lookahead tokens per prediction phase
    /// ([`ParseMetrics::lookahead_depth`]).
    pub mean_lookahead: f64,
    /// Deepest lookahead any prediction phase needed.
    pub max_lookahead: u64,
}

/// Decision behavior per benchmark language.
#[derive(Debug, Clone)]
pub struct PredictionProfile {
    /// One row per language.
    pub rows: Vec<PredictionProfileRow>,
}

/// Profiles `adaptivePredict` (paper §3.4) across the corpora from merged
/// [`ParseMetrics`]: how many decisions there are, how many the static
/// LL(1) map dispatches, how many SLL settles, how often the LL failover
/// runs, and how much lookahead prediction phases need. The original
/// ALL(*) evaluation reports these quantities for ANTLR; they explain
/// *why* the cached-SLL design is the common case fast path.
///
/// Lookahead is [`ParseMetrics::lookahead_depth`]: the tokens each SLL or
/// LL phase charged, counting the end-of-input charge; statically
/// dispatched decisions run no phase and record none.
pub fn prediction_profile(cfg: &Config) -> PredictionProfile {
    let rows = prepare_corpora(cfg)
        .into_iter()
        .map(|c| {
            let mut parser = Parser::new(c.lang.grammar().clone());
            parser.set_cache_policy(CachePolicy::Persistent);
            let mut m = ParseMetrics::default();
            for w in &c.words {
                let (outcome, one) = parser.parse_with_metrics(w);
                expect_unique(c.lang.name, &outcome);
                m.merge(&one);
            }
            let simulated = m.sll_resolved + m.failovers;
            PredictionProfileRow {
                name: c.lang.name,
                decisions: m.decisions,
                single_alternative: m.single_alternative,
                static_fast_path_hits: m.static_fast_path_hits,
                sll_fraction: if simulated == 0 {
                    1.0
                } else {
                    m.sll_resolved as f64 / simulated as f64
                },
                failovers: m.failovers,
                mean_lookahead: m.lookahead_depth.mean(),
                max_lookahead: m.lookahead_depth.max(),
            }
        })
        .collect();
    PredictionProfile { rows }
}

impl fmt::Display for PredictionProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Prediction profile: adaptivePredict behavior per corpus")?;
        writeln!(
            f,
            "{:<10} {:>11} {:>11} {:>11} {:>8} {:>10} {:>10} {:>8}",
            "Benchmark", "decisions", "1-alt", "static", "SLL %", "failovers", "mean LA", "max LA"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>11} {:>11} {:>11} {:>7.1}% {:>10} {:>10.2} {:>8}",
                r.name,
                r.decisions,
                r.single_alternative,
                r.static_fast_path_hits,
                r.sll_fraction * 100.0,
                r.failovers,
                r.mean_lookahead,
                r.max_lookahead
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Parse observability report (BENCH_parse.json)
// ---------------------------------------------------------------------

/// One language's observed-parse measurements.
#[derive(Debug, Clone)]
pub struct ParseBenchRow {
    /// Language name.
    pub name: &'static str,
    /// Total corpus tokens parsed per trial.
    pub tokens: usize,
    /// Throughput of the default (NullObserver) parse path.
    pub null_tokens_per_sec: f64,
    /// Throughput with a [`costar::observe::MetricsObserver`] attached.
    pub observed_tokens_per_sec: f64,
    /// Observed time / null time — the price of metrics collection.
    pub observer_overhead: f64,
    /// Recovering-parse time / null time on the same (valid) corpus — the
    /// price of routing clean input through `Parser::parse_recovering`.
    /// On valid words the recovery driver takes the identical machine
    /// path, so this prices only the driver's bookkeeping.
    pub recovery_overhead: f64,
    /// Multi-alternative prediction decisions over the corpus.
    pub decisions: u64,
    /// Single-alternative short-circuits.
    pub single_alternative: u64,
    /// Decisions SLL resolved without failover.
    pub sll_resolved: u64,
    /// SLL→LL failovers.
    pub failovers: u64,
    /// Fraction of decided decisions that SLL settled.
    pub sll_fraction: f64,
    /// Decisions dispatched through the precompiled static LL(1) map,
    /// skipping subparser simulation and the cache entirely.
    pub static_fast_path_hits: u64,
    /// static_fast_path_hits / decisions (1.0 when there were none).
    pub static_fast_path_fraction: f64,
    /// Microseconds to precompute the grammar's decision table (the
    /// one-time cost the fast path amortizes).
    pub decision_table_micros: f64,
    /// Microseconds for the full audit pass (exact lookahead bounds,
    /// dead/shadowed detection) — what a cache miss recomputes.
    pub audit_micros: f64,
    /// Microseconds to structurally parse and witness-replay the
    /// grammar's own `costar-cert-v1` certificate — what a cache hit
    /// pays instead of the full audit.
    pub cert_validate_micros: f64,
    /// audit_micros / cert_validate_micros — how much cheaper a cached
    /// load's certificate validation is than recomputing the audit.
    pub cert_speedup: f64,
    /// SLL cache lookups.
    pub cache_lookups: u64,
    /// SLL cache hits.
    pub cache_hits: u64,
    /// hits / lookups (1.0 when there were no lookups).
    pub cache_hit_rate: f64,
    /// Machine steps over the corpus.
    pub machine_steps: u64,
    /// Prediction (lookahead) steps over the corpus.
    pub prediction_steps: u64,
    /// Meter-admitted steps over the corpus.
    pub meter_steps: u64,
    /// Certified fuel (`CostModel::bound_for`) summed over the corpus —
    /// what `--max-steps auto` would have budgeted.
    pub predicted_steps: u64,
    /// Parses whose metered step count exceeded the certified bound.
    /// Soundness of the cost certificate: gated at zero.
    pub cost_violations: u64,
    /// predicted_steps / meter_steps — how loose the certified bound is
    /// against real metered work. At least 1.0 when the certificate is
    /// sound; 0.0 only when unmeasured.
    pub cost_bound_ratio: f64,
    /// Microseconds to splice a single-token edit into a live
    /// [`costar::EditSession`] on the largest corpus file (0.0 on
    /// languages whose tokenizer is not incremental-capable — Python's
    /// INDENT/DEDENT synthesis is line-global).
    pub splice_micros: f64,
    /// Microseconds for a full from-scratch lex of the same file — what
    /// the splice avoids (0.0 when the arm did not run).
    pub full_relex_micros: f64,
    /// full_relex_micros / splice_micros — the incremental-lexing payoff
    /// for a single-token edit. Gated at 10x on JSON: a pure same-build
    /// compute ratio, stable across hosts.
    pub incremental_speedup: f64,
    /// Whether the spliced token vector was byte-identical (kind, lexeme,
    /// span) to a from-scratch lex of the edited source — the
    /// `H-INCR-LEX-SOUND` equality, re-checked on every bench run and
    /// gated unconditionally. Vacuously true where the arm did not run.
    pub incremental_equal: bool,
    /// Whether every per-input [`costar::ParseMetrics`] reconciled.
    pub reconciles: bool,
}

/// The parse observability report: per-language throughput, a
/// prediction-mode breakdown, cache hit rates, and the cost of turning
/// the metrics observer on. Serialized to `BENCH_parse.json`.
#[derive(Debug, Clone)]
pub struct ParseBench {
    /// One row per benchmark language.
    pub rows: Vec<ParseBenchRow>,
    /// Time-weighted overhead across all corpora: total observed seconds
    /// over total null seconds. This is the CI gate's number — the
    /// per-language ratios on fast corpora are noise-prone (a JSON pass
    /// is a few milliseconds), while the aggregate is dominated by the
    /// slowest corpus and stays stable run to run.
    pub overall_overhead: f64,
    /// Time-weighted recovering-parse overhead across all corpora (total
    /// recovering seconds over total null seconds), gated like
    /// `overall_overhead`: clean input must not pay for the recovery
    /// machinery it never uses.
    pub overall_recovery_overhead: f64,
    /// Host parallelism observed during the run
    /// (`std::thread::available_parallelism`). The speedup gate only
    /// applies when this is at least 4 — a single-core runner cannot show
    /// parallel speedup no matter how correct the batch engine is.
    pub batch_available: usize,
    /// Wall-clock speedup of [`costar::BatchParser`] at 4 workers over the
    /// same batch at 1 worker, time-weighted across all corpora. `None`
    /// (JSON `null`) on hosts with fewer than 4 cores, where the ratio
    /// would only measure oversubscription and read like a regression.
    pub batch_speedup_4: Option<f64>,
    /// Whether every per-input outcome and deterministic metrics view from
    /// the 4-worker batch was identical to the 1-worker batch — the
    /// determinism contract, checked on every bench run and always gated.
    pub batch_equal: bool,
    /// Time-weighted certificate-validation speedup across all grammars:
    /// total full-audit seconds over total parse-and-replay seconds. A
    /// pure same-build compute ratio (like the batch determinism check,
    /// not a wall-clock throughput), gated at 10x — validating the
    /// embedded certificate must stay an order of magnitude cheaper than
    /// the recompute it saves, or the cache's audit embedding has lost
    /// its point.
    pub overall_cert_speedup: f64,
}

/// Runs every language corpus through the default parse path and the
/// metrics-observed path, collecting the [`ParseBench`] report.
pub fn parse_bench(cfg: &Config) -> ParseBench {
    let mut total_null = 0.0;
    let mut total_observed = 0.0;
    let mut total_recovering = 0.0;
    let mut total_audit = 0.0;
    let mut total_validate = 0.0;
    let corpora = prepare_corpora(cfg);
    let rows = corpora
        .iter()
        .map(|c| {
            let mut parser = Parser::new(c.lang.grammar().clone());
            for w in &c.words {
                expect_unique(c.lang.name, &parser.parse(w));
            }
            let tokens: usize = c.words.iter().map(Vec::len).sum();

            // Price the one-time decision-table precompute (min over a few
            // reps, like the timing arms below).
            let analysis = GrammarAnalysis::compute(c.lang.grammar());
            let mut table_secs = f64::INFINITY;
            for _ in 0..cfg.trials.max(3) {
                let start = Instant::now();
                black_box(DecisionTable::compute(
                    c.lang.grammar(),
                    &analysis.nullable,
                    &analysis.first,
                    &analysis.follow,
                    &analysis.stable_frames,
                ));
                table_secs = table_secs.min(start.elapsed().as_secs_f64());
            }
            // Price the full audit pass against validating its own
            // serialized certificate — cache miss vs cache hit. Both are
            // pure compute on the same build, so the ratio below is
            // machine-independent enough to gate.
            let mut audit_secs = f64::INFINITY;
            for _ in 0..cfg.trials.max(3) {
                let start = Instant::now();
                black_box(AuditTable::compute(
                    c.lang.grammar(),
                    &analysis.stable_frames,
                    &analysis.productivity,
                ));
                audit_secs = audit_secs.min(start.elapsed().as_secs_f64());
            }
            let cert_text = to_cert_json(c.lang.grammar(), &analysis.audit);
            let mut validate_secs = f64::INFINITY;
            for _ in 0..cfg.trials.max(3) {
                let start = Instant::now();
                let table = parse_cert_json(c.lang.grammar(), &cert_text)
                    .expect("a freshly serialized certificate parses");
                let replayed = replay_certificate(
                    c.lang.grammar(),
                    &analysis.stable_frames,
                    &analysis.productivity,
                    &table,
                );
                validate_secs = validate_secs.min(start.elapsed().as_secs_f64());
                assert!(replayed, "{}: own certificate must replay", c.lang.name);
            }
            total_audit += audit_secs;
            total_validate += validate_secs;
            // The overhead ratio feeds a CI gate, so the estimator must be
            // noise-robust: interleave the two arms and keep each arm's
            // minimum over several repetitions (the minimum is the least
            // contaminated by scheduler noise; a mean-of-few flakes).
            let reps = cfg.trials.max(5);
            let mut null_secs = f64::INFINITY;
            let mut observed_secs = f64::INFINITY;
            let mut recovering_secs = f64::INFINITY;
            for _ in 0..reps {
                let start = Instant::now();
                for w in &c.words {
                    black_box(parser.parse(w));
                }
                null_secs = null_secs.min(start.elapsed().as_secs_f64());
                let start = Instant::now();
                for w in &c.words {
                    black_box(parser.parse_with_metrics(w));
                }
                observed_secs = observed_secs.min(start.elapsed().as_secs_f64());
                let start = Instant::now();
                for w in &c.words {
                    black_box(parser.parse_recovering(w));
                }
                recovering_secs = recovering_secs.min(start.elapsed().as_secs_f64());
            }
            total_null += null_secs;
            total_observed += observed_secs;
            total_recovering += recovering_secs;

            // One more observed pass, rolled up with `ParseMetrics::merge`,
            // feeds the counters (timing excluded so the throughput
            // numbers above stay clean).
            let mut total = ParseMetrics::default();
            let mut reconciles = true;
            for w in &c.words {
                let (_, m) = parser.parse_with_metrics(w);
                reconciles &= m.reconciles();
                total.merge(&m);
            }
            let ratio = |num: u64, den: u64| {
                if den > 0 {
                    num as f64 / den as f64
                } else {
                    1.0
                }
            };
            let mut row = ParseBenchRow {
                name: c.lang.name,
                tokens,
                null_tokens_per_sec: tokens as f64 / null_secs.max(1e-12),
                observed_tokens_per_sec: tokens as f64 / observed_secs.max(1e-12),
                observer_overhead: observed_secs / null_secs.max(1e-12),
                recovery_overhead: recovering_secs / null_secs.max(1e-12),
                decisions: total.decisions,
                single_alternative: total.single_alternative,
                sll_resolved: total.sll_resolved,
                failovers: total.failovers,
                sll_fraction: ratio(total.sll_resolved, total.sll_resolved + total.failovers),
                static_fast_path_hits: total.static_fast_path_hits,
                static_fast_path_fraction: ratio(total.static_fast_path_hits, total.decisions),
                decision_table_micros: table_secs * 1e6,
                audit_micros: audit_secs * 1e6,
                cert_validate_micros: validate_secs * 1e6,
                cert_speedup: audit_secs / validate_secs.max(1e-12),
                cache_lookups: total.cache_lookups,
                cache_hits: total.cache_hits,
                cache_hit_rate: ratio(total.cache_hits, total.cache_lookups),
                machine_steps: total.machine_steps,
                prediction_steps: total.prediction_steps,
                meter_steps: total.meter_steps,
                predicted_steps: total.predicted_steps,
                cost_violations: total.cost_violations,
                cost_bound_ratio: total.cost_bound_ratio(),
                splice_micros: 0.0,
                full_relex_micros: 0.0,
                incremental_speedup: 0.0,
                incremental_equal: true,
                reconciles,
            };

            // Incremental-lexing arm: splice a single-token edit into a
            // live session on the largest corpus file vs a full
            // from-scratch re-lex of the same file. The edit replaces the
            // mid-file token's lexeme with itself — lexability is
            // guaranteed while the splice pays the same restart→resync
            // relex cost as a real same-size change. The equality leg
            // re-checks the spliced vector against the from-scratch
            // oracle outside the timing loops.
            if c.lang.incremental_lexing() {
                let src = c.sources.last().expect("nonempty corpus");
                let mut session = EditSession::new(c.lang.lexer(), src).expect("corpus file lexes");
                let mid = session.tokens()[session.tokens().len() / 2].clone();
                let span = mid.span();
                let edit = Edit::new(span.offset..span.offset + span.len, mid.lexeme().to_owned());
                session.apply(&edit).expect("self-splice lexes");
                let oracle = c
                    .lang
                    .tokenize(session.source())
                    .expect("edited source lexes");
                row.incremental_equal = oracle.as_slice() == session.tokens();
                // A splice on a warm session is microseconds; batch
                // several per timing sample so the clock read does not
                // dominate, then keep the per-edit minimum.
                const EDITS_PER_SAMPLE: u32 = 16;
                let mut splice_secs = f64::INFINITY;
                let mut relex_secs = f64::INFINITY;
                for _ in 0..reps {
                    let start = Instant::now();
                    for _ in 0..EDITS_PER_SAMPLE {
                        black_box(session.apply(&edit).expect("self-splice lexes"));
                    }
                    splice_secs = splice_secs
                        .min(start.elapsed().as_secs_f64() / f64::from(EDITS_PER_SAMPLE));
                    let start = Instant::now();
                    black_box(c.lang.tokenize(src).expect("corpus file lexes"));
                    relex_secs = relex_secs.min(start.elapsed().as_secs_f64());
                }
                row.splice_micros = splice_secs * 1e6;
                row.full_relex_micros = relex_secs * 1e6;
                row.incremental_speedup = relex_secs / splice_secs.max(1e-12);
            }
            row
        })
        .collect();

    // Batch-parsing arm: every corpus runs through `BatchParser` at 1
    // worker and at 4. The 1-worker run doubles as the determinism oracle:
    // per-input outcomes and deterministic metrics must be identical at
    // both worker counts (gated unconditionally), and on hosts with at
    // least 4 cores the wall-clock ratio is the speedup row; elsewhere it
    // is skipped, not timed.
    let batch_available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let time_batch = batch_available >= 4;
    let mut batch_equal = true;
    let mut seq_total = 0.0;
    let mut par_total = 0.0;
    for c in &corpora {
        let grammar = std::sync::Arc::new(c.lang.grammar().clone());
        let analysis = std::sync::Arc::new(GrammarAnalysis::compute(&grammar));
        let seq_parser =
            BatchParser::with_shared(std::sync::Arc::clone(&grammar), analysis.clone())
                .with_jobs(1);
        let par_parser = BatchParser::with_shared(grammar, analysis).with_jobs(4);
        let seq = seq_parser.parse_many(&c.words);
        let par = par_parser.parse_many(&c.words);
        batch_equal &= seq.items.len() == par.items.len()
            && seq.items.iter().zip(&par.items).all(|(a, b)| {
                a.outcome() == b.outcome() && a.metrics.deterministic() == b.metrics.deterministic()
            });
        if !time_batch {
            continue;
        }
        let mut seq_secs = f64::INFINITY;
        let mut par_secs = f64::INFINITY;
        for _ in 0..cfg.trials.max(3) {
            let start = Instant::now();
            black_box(seq_parser.parse_many(&c.words));
            seq_secs = seq_secs.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            black_box(par_parser.parse_many(&c.words));
            par_secs = par_secs.min(start.elapsed().as_secs_f64());
        }
        seq_total += seq_secs;
        par_total += par_secs;
    }

    ParseBench {
        rows,
        overall_overhead: total_observed / total_null.max(1e-12),
        overall_recovery_overhead: total_recovering / total_null.max(1e-12),
        batch_available,
        batch_speedup_4: time_batch.then(|| seq_total / par_total.max(1e-12)),
        batch_equal,
        overall_cert_speedup: total_audit / total_validate.max(1e-12),
    }
}

impl ParseBench {
    /// Serializes the report as JSON.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("rows").array(|w| {
                for r in &self.rows {
                    w.object(|w| {
                        w.field("name", r.name)
                            .field("tokens", r.tokens)
                            .field("null_tokens_per_sec", Fixed(r.null_tokens_per_sec, 1))
                            .field(
                                "observed_tokens_per_sec",
                                Fixed(r.observed_tokens_per_sec, 1),
                            )
                            .field("observer_overhead", Fixed(r.observer_overhead, 4))
                            .field("recovery_overhead", Fixed(r.recovery_overhead, 4))
                            .field("decisions", r.decisions)
                            .field("single_alternative", r.single_alternative)
                            .field("sll_resolved", r.sll_resolved)
                            .field("failovers", r.failovers)
                            .field("sll_fraction", Fixed(r.sll_fraction, 4))
                            .field("static_fast_path_hits", r.static_fast_path_hits)
                            .field(
                                "static_fast_path_fraction",
                                Fixed(r.static_fast_path_fraction, 4),
                            )
                            .field("decision_table_micros", Fixed(r.decision_table_micros, 1))
                            .field("audit_micros", Fixed(r.audit_micros, 1))
                            .field("cert_validate_micros", Fixed(r.cert_validate_micros, 1))
                            .field("cert_speedup", Fixed(r.cert_speedup, 1))
                            .field("cache_lookups", r.cache_lookups)
                            .field("cache_hits", r.cache_hits)
                            .field("cache_hit_rate", Fixed(r.cache_hit_rate, 4))
                            .field("machine_steps", r.machine_steps)
                            .field("prediction_steps", r.prediction_steps)
                            .field("meter_steps", r.meter_steps)
                            .field("predicted_steps", r.predicted_steps)
                            .field("cost_violations", r.cost_violations)
                            .field("cost_bound_ratio", Fixed(r.cost_bound_ratio, 4))
                            .field("splice_micros", Fixed(r.splice_micros, 2))
                            .field("full_relex_micros", Fixed(r.full_relex_micros, 2))
                            .field("incremental_speedup", Fixed(r.incremental_speedup, 1))
                            .field("incremental_equal", r.incremental_equal)
                            .field("reconciles", r.reconciles);
                    });
                }
            });
            w.field("overall_overhead", Fixed(self.overall_overhead, 4))
                .field(
                    "overall_recovery_overhead",
                    Fixed(self.overall_recovery_overhead, 4),
                )
                .field("batch_available", self.batch_available)
                .field("batch_speedup_4", self.batch_speedup_4.map(|s| Fixed(s, 4)))
                .field("batch_equal", self.batch_equal)
                .field("overall_cert_speedup", Fixed(self.overall_cert_speedup, 1));
        })
    }

    /// Compares this run's observer overhead against a committed baseline
    /// report (`to_json` output). Fails when the time-weighted overall
    /// overhead exceeds the baseline's by more than the relative
    /// `tolerance` (e.g. 0.05 for 5%) *and* is itself more than
    /// `tolerance` above parity — so timing noise around a near-1.0 ratio
    /// never fails the gate, only a real regression of the observer hot
    /// path does. Per-language ratios are reported but not gated (a few
    /// milliseconds of fast-corpus parse time is too noisy to gate on);
    /// a reconciliation failure on any language always fails.
    pub fn check_against(&self, baseline_json: &str, tolerance: f64) -> Result<(), String> {
        let mut failures = Vec::new();
        let Some(base) = extract_number(baseline_json, "overall_overhead") else {
            return Err("baseline has no overall_overhead field".into());
        };
        if self.overall_overhead > base * (1.0 + tolerance)
            && self.overall_overhead > 1.0 + tolerance
        {
            failures.push(format!(
                "overall observer overhead {:.3}x exceeds baseline {:.3}x by more than {:.0}%",
                self.overall_overhead,
                base,
                tolerance * 100.0
            ));
        }
        // Same envelope for the recovering-parse path on clean input: the
        // recovery machinery must stay free when unused. Baselines written
        // before the field existed gate against parity (1.0).
        let recovery_base =
            extract_number(baseline_json, "overall_recovery_overhead").unwrap_or(1.0);
        if self.overall_recovery_overhead > recovery_base * (1.0 + tolerance)
            && self.overall_recovery_overhead > 1.0 + tolerance
        {
            failures.push(format!(
                "overall recovery overhead {:.3}x exceeds baseline {:.3}x by more than {:.0}%",
                self.overall_recovery_overhead,
                recovery_base,
                tolerance * 100.0
            ));
        }
        for r in &self.rows {
            if !r.reconciles {
                failures.push(format!("{}: metrics failed to reconcile", r.name));
            }
        }
        // The cost certificate must stay sound (no parse may out-step its
        // certified bound) and useful (the bound may be loose — it is a
        // worst case — but a blowup past the fixed envelope means the
        // ε-analysis degenerated, e.g. a saturating hazard fallback where
        // an exact bound used to hold). Pure counter ratios: absolute
        // gates, stable across hosts.
        const COST_RATIO_CEILING: f64 = 1_000_000.0;
        for r in &self.rows {
            if r.cost_violations > 0 {
                failures.push(format!(
                    "{}: {} parses exceeded the certified cost bound",
                    r.name, r.cost_violations
                ));
            }
            if r.predicted_steps > 0 {
                if r.cost_bound_ratio < 1.0 {
                    failures.push(format!(
                        "{}: cost bound ratio {:.4} below parity — the certificate \
                         under-predicts real metered work",
                        r.name, r.cost_bound_ratio
                    ));
                }
                if r.cost_bound_ratio > COST_RATIO_CEILING {
                    failures.push(format!(
                        "{}: cost bound ratio {:.0} exceeds the {COST_RATIO_CEILING:.0} \
                         envelope — the certified bound degenerated",
                        r.name, r.cost_bound_ratio
                    ));
                }
            }
        }
        // The batch determinism contract is gated unconditionally: 4-worker
        // results must be identical to 1-worker results on every host.
        if !self.batch_equal {
            failures.push("batch: 4-worker results diverged from the sequential oracle".into());
        }
        // The speedup row is only meaningful with real cores behind the
        // workers; a single- or dual-core runner cannot show parallel
        // speedup regardless of engine quality, so the absolute 1.8x
        // floor applies only on hosts with at least 4 cores.
        if let Some(speedup) = self.batch_speedup_4 {
            if self.batch_available >= 4 && speedup < 1.8 {
                failures.push(format!(
                    "batch speedup {speedup:.2}x at 4 workers fell below the 1.80x gate"
                ));
            }
        }
        // The incremental-lexing arm. Equality is the soundness claim —
        // the spliced token vector must match a from-scratch lex of the
        // edited source — and is gated unconditionally on every language
        // the arm ran on. The speedup is a pure same-build compute ratio
        // (like cert_speedup), so the 10x floor is absolute, gated on the
        // large-JSON single-token edit where the claim is made.
        for r in &self.rows {
            if !r.incremental_equal {
                failures.push(format!(
                    "{}: spliced tokens diverged from the from-scratch lex",
                    r.name
                ));
            }
        }
        if let Some(json_row) = self.rows.iter().find(|r| r.name == "JSON") {
            if json_row.incremental_speedup < 10.0 {
                failures.push(format!(
                    "JSON: incremental splice speedup {:.1}x fell below the 10x gate",
                    json_row.incremental_speedup
                ));
            }
        }
        // Validating the embedded audit certificate must stay an order of
        // magnitude cheaper than the full recompute it replaces on cached
        // loads. Like the batch determinism check this is a same-build
        // compute ratio, not a wall-clock throughput, so the absolute
        // floor is stable across runner generations.
        if self.overall_cert_speedup < 10.0 {
            failures.push(format!(
                "certificate validation speedup {:.1}x fell below the 10x gate",
                self.overall_cert_speedup
            ));
        }
        // The static fast path must stay engaged. The JSON grammar is
        // entirely LL(1), so zero hits there means the decision table
        // stopped reaching the parser; and on the deterministic corpora
        // (JSON/XML/DOT — Python's generator varies more run to run) the
        // hit *fraction* is a pure counter ratio, so a drop beyond the
        // tolerance vs the committed baseline is a real wiring
        // regression, not timing noise.
        if let Some(json_row) = self.rows.iter().find(|r| r.name == "JSON") {
            if json_row.static_fast_path_hits == 0 {
                failures.push("JSON: static fast path never fired".into());
            }
        }
        for r in &self.rows {
            if !matches!(r.name, "JSON" | "XML" | "DOT") {
                continue;
            }
            if let Some(base_frac) =
                extract_row_number(baseline_json, r.name, "static_fast_path_fraction")
            {
                if r.static_fast_path_fraction < base_frac - tolerance {
                    failures.push(format!(
                        "{}: static fast-path fraction {:.4} fell below baseline {:.4}",
                        r.name, r.static_fast_path_fraction, base_frac
                    ));
                }
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("\n"))
        }
    }
}

/// Pulls the first numeric value keyed by `key` out of a
/// `ParseBench::to_json` document. A tiny purpose-built scanner: the
/// report holds floats, which the workspace's integer-only JSON reader
/// (`costar_grammar::json`) rejects.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("{:?}:", key);
    let at = json.find(&needle)? + needle.len();
    let tail = &json[at..];
    let end = tail
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Like [`extract_number`], but scoped to the row object whose
/// `"name"` equals `row_name` (the scan window runs to the next row's
/// name key, so keys repeated across rows resolve per row).
fn extract_row_number(json: &str, row_name: &str, key: &str) -> Option<f64> {
    let marker = format!("\"name\":{row_name:?}");
    let at = json.find(&marker)? + marker.len();
    let tail = &json[at..];
    let window = match tail.find("\"name\":") {
        Some(next) => &tail[..next],
        None => tail,
    };
    extract_number(window, key)
}

impl fmt::Display for ParseBench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Parse observability report")?;
        writeln!(
            f,
            "{:<10} {:>10} {:>12} {:>9} {:>9} {:>10} {:>8} {:>9} {:>10} {:>9}",
            "Benchmark",
            "tokens",
            "tok/s(null)",
            "obs cost",
            "rec cost",
            "decisions",
            "SLL %",
            "static %",
            "failovers",
            "hit rate"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>10} {:>12.0} {:>8.2}x {:>8.2}x {:>10} {:>7.1}% {:>8.1}% {:>10} {:>8.1}%",
                r.name,
                r.tokens,
                r.null_tokens_per_sec,
                r.observer_overhead,
                r.recovery_overhead,
                r.decisions,
                r.sll_fraction * 100.0,
                r.static_fast_path_fraction * 100.0,
                r.failovers,
                r.cache_hit_rate * 100.0
            )?;
        }
        writeln!(
            f,
            "overall observer overhead (time-weighted): {:.2}x",
            self.overall_overhead
        )?;
        writeln!(
            f,
            "overall recovery overhead on clean input (time-weighted): {:.2}x",
            self.overall_recovery_overhead
        )?;
        writeln!(
            f,
            "audit: certificate validation {:.1}x faster than full recompute \
             (time-weighted)",
            self.overall_cert_speedup
        )?;
        let incr: Vec<String> = self
            .rows
            .iter()
            .filter(|r| r.splice_micros > 0.0)
            .map(|r| {
                format!(
                    "{} {:.0}x{}",
                    r.name,
                    r.incremental_speedup,
                    if r.incremental_equal {
                        ""
                    } else {
                        " (DIVERGED)"
                    }
                )
            })
            .collect();
        if !incr.is_empty() {
            writeln!(
                f,
                "incremental: single-token edit splice vs full re-lex: {}",
                incr.join(", ")
            )?;
        }
        let max_cost_ratio = self
            .rows
            .iter()
            .map(|r| r.cost_bound_ratio)
            .fold(0.0, f64::max);
        let total_violations: u64 = self.rows.iter().map(|r| r.cost_violations).sum();
        writeln!(
            f,
            "cost: certified bound held on every parse ({total_violations} violations), \
             loosest bound/actual ratio {max_cost_ratio:.0}x"
        )?;
        match self.batch_speedup_4 {
            Some(speedup) => write!(f, "batch: {speedup:.2}x speedup at 4 workers")?,
            None => write!(f, "batch: speedup skipped")?,
        }
        writeln!(
            f,
            " ({} cores available), results {} sequential",
            self.batch_available,
            if self.batch_equal {
                "identical to"
            } else {
                "DIVERGED from"
            }
        )
    }
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// One row of an ablation comparison.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// What the row measures (language or parameter value).
    pub label: String,
    /// Baseline configuration seconds.
    pub base_secs: f64,
    /// Variant configuration seconds.
    pub variant_secs: f64,
}

impl AblationRow {
    /// variant / base.
    pub fn ratio(&self) -> f64 {
        self.variant_secs / self.base_secs.max(1e-12)
    }
}

/// A named two-arm ablation result.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Experiment name.
    pub name: &'static str,
    /// Label of the baseline arm.
    pub base_label: &'static str,
    /// Label of the variant arm.
    pub variant_label: &'static str,
    /// Rows.
    pub rows: Vec<AblationRow>,
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation: {}", self.name)?;
        writeln!(
            f,
            "{:<14} {:>14} {:>14} {:>8}",
            "case", self.base_label, self.variant_label, "ratio"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>12.2}ms {:>12.2}ms {:>7.2}x",
                r.label,
                r.base_secs * 1e3,
                r.variant_secs * 1e3,
                r.ratio()
            )?;
        }
        Ok(())
    }
}

/// Ablation: SLL prediction + DFA cache (the paper's algorithm) vs
/// LL-only prediction (no SLL, no cache) — quantifies §2's claim that
/// memoized SLL prediction is what makes ALL(*) efficient.
pub fn ablation_sll_cache(cfg: &Config) -> Ablation {
    let rows = prepare_corpora(cfg)
        .into_iter()
        .map(|c| {
            let w = c.words.last().expect("nonempty corpus");
            let mut adaptive = Parser::new(c.lang.grammar().clone());
            let mut ll_only = Parser::new(c.lang.grammar().clone());
            ll_only.set_prediction_mode(PredictionMode::LlOnly);
            expect_unique(c.lang.name, &adaptive.parse(w));
            assert_eq!(
                adaptive.parse(w),
                ll_only.parse(w),
                "{}: modes must agree",
                c.lang.name
            );
            AblationRow {
                label: c.lang.name.to_owned(),
                base_secs: time_avg(cfg.trials, || adaptive.parse(w)),
                variant_secs: time_avg(cfg.trials, || ll_only.parse(w)),
            }
        })
        .collect();
    Ablation {
        name: "SLL + DFA cache vs LL-only prediction",
        base_label: "adaptive",
        variant_label: "LL-only",
        rows,
    }
}

/// Ablation: the precompiled static LL(1) fast path (default) vs full
/// adaptive prediction at every decision point — prices what the static
/// decision table buys on each corpus. Outcomes are asserted identical;
/// only where prediction work happens differs.
pub fn ablation_static_fast_path(cfg: &Config) -> Ablation {
    let rows = prepare_corpora(cfg)
        .into_iter()
        .map(|c| {
            let w = c.words.last().expect("nonempty corpus");
            let mut fast = Parser::new(c.lang.grammar().clone());
            let mut full = Parser::new(c.lang.grammar().clone());
            full.set_prediction_mode(PredictionMode::AdaptiveNoStatic);
            expect_unique(c.lang.name, &fast.parse(w));
            assert_eq!(
                fast.parse(w),
                full.parse(w),
                "{}: modes must agree",
                c.lang.name
            );
            AblationRow {
                label: c.lang.name.to_owned(),
                base_secs: time_avg(cfg.trials, || fast.parse(w)),
                variant_secs: time_avg(cfg.trials, || full.parse(w)),
            }
        })
        .collect();
    Ablation {
        name: "static LL(1) fast path vs full adaptive prediction",
        base_label: "fast path",
        variant_label: "no table",
        rows,
    }
}

/// Ablation: the plain parse entry point vs the recovering entry point
/// (`Parser::parse_recovering`) on the *same valid corpora* — prices the
/// resynchronizing driver's bookkeeping when no error ever fires. On
/// clean input the recovering driver replays the identical machine step
/// sequence (the `H-RECOVER-SOUND` identity), so any ratio above parity
/// is pure driver overhead; the CI gate keeps the time-weighted version
/// of this number inside the 5% envelope.
pub fn ablation_recovery(cfg: &Config) -> Ablation {
    let rows = prepare_corpora(cfg)
        .into_iter()
        .map(|c| {
            let w = c.words.last().expect("nonempty corpus");
            let mut parser = Parser::new(c.lang.grammar().clone());
            expect_unique(c.lang.name, &parser.parse(w));
            let recovered = parser.parse_recovering(w);
            assert!(
                recovered.is_clean(),
                "{}: valid corpus word did not recover cleanly",
                c.lang.name
            );
            AblationRow {
                label: c.lang.name.to_owned(),
                base_secs: time_avg(cfg.trials, || parser.parse(w)),
                variant_secs: time_avg(cfg.trials, || parser.parse_recovering(w)),
            }
        })
        .collect();
    Ablation {
        name: "plain parse vs recovering parse on valid input",
        base_label: "parse",
        variant_label: "recovering",
        rows,
    }
}

/// Ablation: a full from-scratch re-lex vs splicing a single-token edit
/// into a live [`costar::EditSession`] — the incremental-lexing payoff
/// on each language's largest corpus file. Python is absent: its
/// INDENT/DEDENT synthesis is a line-global pass over the raw token
/// stream, so its editors must re-tokenize from scratch
/// ([`Language::incremental_lexing`]).
pub fn ablation_incremental(cfg: &Config) -> Ablation {
    let rows = prepare_corpora(cfg)
        .into_iter()
        .filter(|c| c.lang.incremental_lexing())
        .map(|c| {
            let src = c.sources.last().expect("nonempty corpus");
            let mut session = EditSession::new(c.lang.lexer(), src).expect("corpus file lexes");
            let mid = session.tokens()[session.tokens().len() / 2].clone();
            let span = mid.span();
            let edit = Edit::new(span.offset..span.offset + span.len, mid.lexeme().to_owned());
            session.apply(&edit).expect("self-splice lexes");
            assert_eq!(
                c.lang
                    .tokenize(session.source())
                    .expect("edited source lexes"),
                session.tokens(),
                "{}: spliced tokens must match the from-scratch lex",
                c.lang.name
            );
            AblationRow {
                label: c.lang.name.to_owned(),
                base_secs: time_avg(cfg.trials, || c.lang.tokenize(src)),
                variant_secs: time_avg(cfg.trials, || {
                    session.apply(&edit).expect("self-splice lexes")
                }),
            }
        })
        .collect();
    Ablation {
        name: "full re-lex vs incremental splice (single-token edit)",
        base_label: "full re-lex",
        variant_label: "splice",
        rows,
    }
}

/// Ablation: the published per-input cache policy vs our cross-input
/// cache-reuse extension, over many small files (where start-up cost
/// matters most — the CoStar-side mirror of Fig. 11).
pub fn ablation_cache_reuse(cfg: &Config) -> Ablation {
    let rows = all_languages()
        .into_iter()
        .map(|(lang, generate)| {
            // Many small files: the regime where cache reuse pays.
            let sources = corpus(generate, 7, cfg.files.max(8), cfg.max_size / 10 + 50);
            let words: Vec<Vec<Token>> = sources
                .iter()
                .map(|s| lang.tokenize(s).expect("corpus lexes"))
                .collect();
            let mut fresh = Parser::new(lang.grammar().clone());
            let mut reuse = Parser::new(lang.grammar().clone());
            reuse.set_cache_policy(CachePolicy::Persistent);
            for w in &words {
                assert_eq!(
                    fresh.parse(w),
                    reuse.parse(w),
                    "{}: policies agree",
                    lang.name
                );
            }
            let base_secs = time_avg(cfg.trials, || words.iter().map(|w| fresh.parse(w)).count());
            let variant_secs =
                time_avg(cfg.trials, || words.iter().map(|w| reuse.parse(w)).count());
            AblationRow {
                label: lang.name.to_owned(),
                base_secs,
                variant_secs,
            }
        })
        .collect();
    Ablation {
        name: "per-input cache (paper) vs cross-input cache reuse (extension)",
        base_label: "per-input",
        variant_label: "reuse",
        rows,
    }
}

/// Builds a synthetic grammar family member with `width` distinct
/// keyword-dispatched statement forms — growing `|N|` and `|P|` while the
/// parsed input stays similar. Used by [`ablation_grammar_size`] to
/// reproduce the §6.1 observation that per-token cost grows with grammar
/// size.
pub fn synthetic_grammar(width: usize) -> (Grammar, Vec<Token>) {
    let mut gb = GrammarBuilder::new();
    gb.rule("program", &["stmt", "program"]);
    gb.rule("program", &[]);
    for i in 0..width {
        let stmt_i = format!("stmt{i}");
        let kw = format!("kw{i}");
        let body = format!("body{i}");
        gb.rule("stmt", &[&stmt_i]);
        gb.rule(&stmt_i, &[&kw, &body, "Semi"]);
        gb.rule(&body, &["Int"]);
        gb.rule(&body, &["Int", "Comma", &body]);
    }
    let g = gb.start("program").build().expect("synthetic grammar");
    // An input exercising every statement kind round-robin.
    let mut word = Vec::new();
    let sym = |n: &str| g.symbols().lookup_terminal(n).expect("terminal");
    for k in 0..200 {
        let i = k % width;
        word.push(Token::new(sym(&format!("kw{i}")), "kw"));
        word.push(Token::new(sym("Int"), "1"));
        word.push(Token::new(sym("Comma"), ","));
        word.push(Token::new(sym("Int"), "2"));
        word.push(Token::new(sym("Semi"), ";"));
    }
    (g, word)
}

/// Comparison: CoStar vs the general-CFG Earley parser on the benchmark
/// corpora — the performance argument of the paper's §7: general parsers
/// "are designed to be compatible with all CFGs ... traits \[that\] are
/// likely to hinder fast and predictable performance on the deterministic
/// grammars that are sufficient for many practical applications."
pub fn ablation_general_cfg(cfg: &Config) -> Ablation {
    let small = Config {
        // Earley is O(n³) worst case and much slower in practice —
        // especially on the large Python grammar, where a single
        // ~1000-token file takes minutes; keep its inputs small. The
        // point (orders of magnitude, §7) is visible well before that.
        files: cfg.files.min(4),
        max_size: cfg.max_size.min(400),
        trials: cfg.trials.min(2),
    };
    let rows = prepare_corpora(&small)
        .into_iter()
        .map(|c| {
            let w = c.words.last().expect("nonempty corpus");
            let mut costar = Parser::new(c.lang.grammar().clone());
            expect_unique(c.lang.name, &costar.parse(w));
            assert!(
                earley_parse(c.lang.grammar(), w).is_some(),
                "{}: Earley rejects a corpus file",
                c.lang.name
            );
            AblationRow {
                label: c.lang.name.to_owned(),
                base_secs: time_avg(small.trials, || costar.parse(w)),
                variant_secs: time_avg(small.trials, || earley_parse(c.lang.grammar(), w)),
            }
        })
        .collect();
    Ablation {
        name: "CoStar vs general-CFG Earley parser (the §7 performance argument)",
        base_label: "costar",
        variant_label: "earley",
        rows,
    }
}

/// Ablation: parse time per token as the grammar grows (a synthetic
/// family with increasing statement-kind counts), reproducing the §6.1
/// profiling discussion ("our largest evaluation grammar is Python, so
/// the fact that our Python benchmark is the slowest in terms of tokens
/// processed per second does not come as a surprise").
pub fn ablation_grammar_size(cfg: &Config) -> Ablation {
    let widths = [10usize, 40, 160];
    let (small_g, small_w) = synthetic_grammar(widths[0]);
    let mut small = Parser::new(small_g);
    expect_unique("synthetic", &small.parse(&small_w));
    let base = time_avg(cfg.trials, || small.parse(&small_w));
    let rows = widths
        .into_iter()
        .map(|w| {
            let (g, word) = synthetic_grammar(w);
            let mut parser = Parser::new(g);
            expect_unique("synthetic", &parser.parse(&word));
            AblationRow {
                label: format!("width {w}"),
                base_secs: base,
                variant_secs: time_avg(cfg.trials, || parser.parse(&word)),
            }
        })
        .collect();
    Ablation {
        name: "per-token cost vs grammar size (synthetic family)",
        base_label: "width 10",
        variant_label: "this width",
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            files: 4,
            max_size: 300,
            trials: 1,
        }
    }

    #[test]
    fn fig8_reports_all_languages() {
        let f = fig8(&tiny());
        assert_eq!(f.rows.len(), 4);
        assert!(f.rows.iter().all(|r| r.tokens > 0 && r.megabytes > 0.0));
        assert!(f.to_string().contains("JSON"));
    }

    #[test]
    fn fig9_produces_fits() {
        // Slope sign is asserted only in the release harness runs: at
        // unit-test scale (tiny corpora, debug build, shared CI cores)
        // wall-clock noise can dominate, and a flaky slope assertion
        // would tell us nothing about the code.
        let f = fig9(&tiny());
        for p in &f.panels {
            let fit = p.fit.expect("enough points to fit");
            assert!(fit.slope.is_finite(), "{}: slope {}", p.name, fit.slope);
            assert!(p.tokens_per_sec > 0.0);
            assert!(p.points.iter().all(|&(n, s)| n > 0 && s >= 0.0));
        }
        assert!(f.to_string().contains("LOWESS"));
    }

    #[test]
    fn fig10_produces_ratios() {
        let f = fig10(&tiny());
        assert_eq!(f.rows.len(), 4);
        for r in &f.rows {
            assert!(r.parser_slowdown.0 > 0.0);
            assert!(r.pipeline_slowdown.0 > 0.0);
        }
    }

    #[test]
    fn fig11_produces_cold_and_warm_points() {
        let f = fig11(&tiny());
        assert_eq!(f.points.len(), 4);
        for p in &f.points {
            assert!(p.cold_ms_per_ktok > 0.0 && p.warm_ms_per_ktok > 0.0);
        }
    }

    #[test]
    fn prediction_profile_reports_sane_numbers() {
        let p = prediction_profile(&tiny());
        assert_eq!(p.rows.len(), 4);
        for r in &p.rows {
            assert!(r.decisions > 0, "{}", r.name);
            assert!((0.0..=1.0).contains(&r.sll_fraction));
            assert!(r.mean_lookahead >= 0.0);
        }
        // The XML element decision needs real lookahead (attribute lists).
        let xml = p.rows.iter().find(|r| r.name == "XML").unwrap();
        assert!(xml.max_lookahead >= 3, "XML max LA {}", xml.max_lookahead);
        assert!(p.to_string().contains("failovers"));
    }

    #[test]
    fn ablations_run_and_agree() {
        let a = ablation_sll_cache(&tiny());
        assert_eq!(a.rows.len(), 4);
        let b = ablation_cache_reuse(&tiny());
        assert_eq!(b.rows.len(), 4);
        let c = ablation_grammar_size(&tiny());
        assert_eq!(c.rows.len(), 3);
        assert!(!c.to_string().is_empty());
        let d = ablation_static_fast_path(&tiny());
        assert_eq!(d.rows.len(), 4);
        assert!(d.rows.iter().all(|r| r.base_secs > 0.0));
        let e = ablation_recovery(&tiny());
        assert_eq!(e.rows.len(), 4);
        assert!(e
            .rows
            .iter()
            .all(|r| r.base_secs > 0.0 && r.variant_secs > 0.0));
        assert!(e.to_string().contains("recovering"));
        // Incremental splice: the three Plain-tokenizer languages (no
        // Python — its tokenizer is not incremental-capable).
        let g = ablation_incremental(&tiny());
        assert_eq!(g.rows.len(), 3);
        assert!(g.rows.iter().all(|r| r.label != "Python"));
        assert!(g
            .rows
            .iter()
            .all(|r| r.base_secs > 0.0 && r.variant_secs > 0.0));
        assert!(g.to_string().contains("splice"));
    }

    #[test]
    fn general_cfg_comparison_runs() {
        // Earley is O(n³)-ish and this test runs unoptimized: keep the
        // corpus very small.
        let cfg = Config {
            files: 2,
            max_size: 60,
            trials: 1,
        };
        let a = ablation_general_cfg(&cfg);
        assert_eq!(a.rows.len(), 4);
        for r in &a.rows {
            assert!(r.variant_secs > 0.0 && r.base_secs > 0.0, "{}", r.label);
        }
    }

    #[test]
    fn parse_bench_reconciles_and_gates() {
        let mut p = parse_bench(&tiny());
        assert_eq!(p.rows.len(), 4);
        for r in &p.rows {
            assert!(r.reconciles, "{}: metrics must reconcile", r.name);
            assert!(r.tokens > 0 && r.null_tokens_per_sec > 0.0);
            assert!(r.decisions > 0, "{}", r.name);
            assert!((0.0..=1.0).contains(&r.cache_hit_rate));
        }
        // The JSON grammar is pure LL(1): every decision must dispatch
        // through the static fast path.
        let json_row = p.rows.iter().find(|r| r.name == "JSON").unwrap();
        assert!(json_row.static_fast_path_hits > 0);
        assert!(
            json_row.static_fast_path_fraction >= 0.5,
            "JSON static fraction {}",
            json_row.static_fast_path_fraction
        );
        assert!(json_row.decision_table_micros > 0.0);
        // The audit/certificate arm: both sides measured, and validation
        // beats the full recompute by the gated order of magnitude even
        // at unit-test scale (it is a compute ratio, not wall-clock).
        for r in &p.rows {
            assert!(
                r.audit_micros > 0.0 && r.cert_validate_micros > 0.0,
                "{}: audit arm unmeasured",
                r.name
            );
            assert!(r.cert_speedup > 0.0, "{}", r.name);
        }
        // The 10x gate is calibrated for CI's release-mode bench-smoke
        // run (which measures ~12x); an unoptimized build lands around
        // the threshold, so assert a debug-safe floor on the measured
        // ratio here and pin the value before exercising the gate logic
        // below so the self-comparison stays deterministic.
        assert!(
            p.overall_cert_speedup >= 3.0,
            "certificate validation only {:.1}x faster than recompute",
            p.overall_cert_speedup
        );
        p.overall_cert_speedup = p.overall_cert_speedup.max(10.0);
        // The incremental arm: measured on the three Plain-tokenizer
        // languages, skipped on Python, and sound (spliced == oracle)
        // everywhere. Like the cert gate, the 10x speedup floor is
        // calibrated for the release-mode CI run; at unit-test scale
        // (tiny files, debug build) assert a debug-safe floor and pin
        // the value before exercising the gate logic below.
        for r in &p.rows {
            assert!(r.incremental_equal, "{}: splice diverged", r.name);
            if r.name == "Python" {
                assert_eq!(r.splice_micros, 0.0, "Python must skip the arm");
                assert_eq!(r.incremental_speedup, 0.0);
            } else {
                assert!(
                    r.splice_micros > 0.0 && r.full_relex_micros > 0.0,
                    "{}: incremental arm unmeasured",
                    r.name
                );
                assert!(
                    r.incremental_speedup >= 2.0,
                    "{}: splice only {:.1}x faster than full re-lex",
                    r.name,
                    r.incremental_speedup
                );
            }
        }
        for r in &mut p.rows {
            if r.incremental_speedup > 0.0 {
                r.incremental_speedup = r.incremental_speedup.max(10.0);
            }
        }
        for r in &p.rows {
            assert!(
                r.recovery_overhead > 0.0,
                "{}: recovery overhead unmeasured",
                r.name
            );
        }
        // The batch arm must have run its determinism oracle on every
        // corpus; on any host count it must match sequential exactly.
        assert!(p.batch_equal, "batch results diverged from sequential");
        // The speedup is measured exactly when 4 cores can show it, and
        // reported as skipped (JSON null) otherwise.
        assert!(p.batch_available >= 1);
        let json = p.to_json();
        assert!(json.contains("\"batch_available\""));
        assert!(json.contains("\"batch_equal\":true"));
        match p.batch_speedup_4 {
            Some(speedup) => {
                assert!(p.batch_available >= 4 && speedup > 0.0);
                assert!(p.to_string().contains("speedup at 4 workers"));
            }
            None => {
                assert!(p.batch_available < 4);
                assert!(json.contains("\"batch_speedup_4\":null"));
                assert!(p.to_string().contains(&format!(
                    "batch: speedup skipped ({} cores available)",
                    p.batch_available
                )));
            }
        }
        assert!(json.contains("\"observer_overhead\""));
        assert!(json.contains("\"overall_overhead\""));
        assert!(json.contains("\"recovery_overhead\""));
        assert!(json.contains("\"overall_recovery_overhead\""));
        assert!(json.contains("\"static_fast_path_hits\""));
        assert!(json.contains("\"static_fast_path_fraction\""));
        assert!(json.contains("\"decision_table_micros\""));
        assert!(json.contains("\"audit_micros\""));
        assert!(json.contains("\"cert_validate_micros\""));
        assert!(json.contains("\"cert_speedup\""));
        assert!(json.contains("\"overall_cert_speedup\""));
        assert!(p.to_string().contains("faster than full recompute"));
        assert!(json.contains("\"reconciles\":true"));
        // The cost-certificate arm: every parse stayed within its
        // certified bound, and the bound itself was measured.
        for r in &p.rows {
            assert_eq!(r.cost_violations, 0, "{}: bound violated", r.name);
            assert!(
                r.predicted_steps >= r.meter_steps,
                "{}: predicted {} < metered {}",
                r.name,
                r.predicted_steps,
                r.meter_steps
            );
            assert!(
                r.cost_bound_ratio >= 1.0,
                "{}: cost bound ratio {}",
                r.name,
                r.cost_bound_ratio
            );
        }
        assert!(json.contains("\"predicted_steps\""));
        assert!(json.contains("\"cost_violations\":0"));
        assert!(json.contains("\"cost_bound_ratio\""));
        assert!(p.to_string().contains("certified bound held"));
        assert!(json.contains("\"splice_micros\""));
        assert!(json.contains("\"full_relex_micros\""));
        assert!(json.contains("\"incremental_speedup\""));
        assert!(json.contains("\"incremental_equal\":true"));
        assert!(p.to_string().contains("single-token edit splice"));
        // The gate accepts a run against its own baseline...
        p.check_against(&json, 0.05)
            .expect("self-comparison passes");
        // ...and rejects a genuinely regressed observer path.
        let mut worse = p.clone();
        worse.overall_overhead = 10.0;
        assert!(worse.check_against(&json, 0.05).is_err());
        // ...and a regressed recovering path on clean input, even against
        // a baseline predating the recovery field (parity fallback).
        let mut slow_recovery = p.clone();
        slow_recovery.overall_recovery_overhead = 10.0;
        assert!(slow_recovery.check_against(&json, 0.05).is_err());
        let legacy = json.replace("\"overall_recovery_overhead\"", "\"renamed_away\"");
        assert!(slow_recovery.check_against(&legacy, 0.05).is_err());
        // ...and a baseline without the gate number is a configuration
        // error, not a pass.
        assert!(p.check_against("{\"rows\":[]}", 0.05).is_err());
        // A torn metrics report always fails.
        let mut torn = p.clone();
        torn.rows[0].reconciles = false;
        assert!(torn.check_against(&json, 0.05).is_err());
        // A parse that out-stepped its certified cost bound always fails,
        // as does a bound below parity or one past the fixed envelope.
        let mut unsound_cost = p.clone();
        unsound_cost.rows[0].cost_violations = 1;
        assert!(unsound_cost.check_against(&json, 0.05).is_err());
        let mut tight_cost = p.clone();
        tight_cost.rows[0].cost_bound_ratio = 0.5;
        assert!(tight_cost.check_against(&json, 0.05).is_err());
        let mut loose_cost = p.clone();
        loose_cost.rows[0].cost_bound_ratio = 2_000_000.0;
        assert!(loose_cost.check_against(&json, 0.05).is_err());
        // A run where the static fast path stopped firing fails the gate.
        let mut unplugged = p.clone();
        for r in &mut unplugged.rows {
            r.static_fast_path_hits = 0;
            r.static_fast_path_fraction = 0.0;
        }
        assert!(unplugged.check_against(&json, 0.05).is_err());
        // A run whose certificate validation lost its order-of-magnitude
        // edge over the full recompute fails the 10x gate.
        let mut slow_cert = p.clone();
        slow_cert.overall_cert_speedup = 2.0;
        assert!(slow_cert.check_against(&json, 0.05).is_err());
        // An incremental splice that diverged from the from-scratch lex
        // always fails, and a JSON single-token-edit speedup below the
        // 10x floor fails the absolute gate.
        let mut torn_splice = p.clone();
        torn_splice.rows[0].incremental_equal = false;
        assert!(torn_splice.check_against(&json, 0.05).is_err());
        let mut slow_splice = p.clone();
        for r in &mut slow_splice.rows {
            if r.name == "JSON" {
                r.incremental_speedup = 3.0;
            }
        }
        assert!(slow_splice.check_against(&json, 0.05).is_err());
        // A batch run that diverged from the sequential oracle always
        // fails, on any host.
        let mut torn_batch = p.clone();
        torn_batch.batch_equal = false;
        assert!(torn_batch.check_against(&json, 0.05).is_err());
        // On a >=4-core host, a speedup below the 1.8x floor fails; under
        // 4 cores the determinism gate still applies but the floor does
        // not (a serial machine cannot exhibit parallel speedup).
        let mut slow_batch = p.clone();
        slow_batch.batch_available = 8;
        slow_batch.batch_speedup_4 = Some(1.0);
        assert!(slow_batch.check_against(&json, 0.05).is_err());
        slow_batch.batch_available = 1;
        assert!(slow_batch.check_against(&json, 0.05).is_ok());
    }

    #[test]
    fn synthetic_grammar_scales_with_width() {
        let (g10, w) = synthetic_grammar(10);
        let (g40, _) = synthetic_grammar(40);
        assert!(g40.num_nonterminals() > g10.num_nonterminals());
        assert_eq!(w.len(), 1000);
    }
}
