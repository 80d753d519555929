//! # costar-perfbench — the CoStar pipeline measured end to end and by layer
//!
//! Four closed-loop workloads with one client each, driven through the
//! public API and the release `costar` binary:
//!
//! * `corpus` — read, lex, parse and drop one generated file per
//!   operation (the paper's Fig. 9/10 pipeline);
//! * `editor` — one edit per operation on a recovering parse session;
//! * `oneshot` — one `costar parse --lang L FILE` child process per
//!   operation;
//! * `batch` — one `BatchParser::parse_many` call per operation.
//!
//! An untraced run reports the end-to-end metrics. A traced run records
//! spans around every layer call (see [`trace`]) and reports per-layer
//! self times and counts, plus its own overhead. `README.md` in this
//! directory explains the choices.

pub mod batch;
pub mod corpus;
pub mod editor;
pub mod host;
pub mod lang;
pub mod oneshot;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;

use costar::ParseMetrics;
use costar_grammar::analysis::GrammarAnalysis;
use lang::{Built, Lang};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 4] = ["corpus", "editor", "oneshot", "batch"];

/// When a measured phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much wall time.
    Time(Duration),
    /// After this many operations (count-determinism runs).
    Ops(u64),
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Fixes every generated input and every seeded choice.
    pub seed: u64,
    /// Length of the measurement.
    pub stop: Stop,
    /// Record spans and counts (the per-layer run).
    pub trace: bool,
    /// Scratch directory for generated files and caches.
    pub work_dir: PathBuf,
    /// The release `costar` binary; `oneshot` needs it to spawn children.
    pub costar_bin: Option<PathBuf>,
    /// How many times set-up is repeated (its median is `setup_s`).
    pub setup_reps: usize,
}

/// Layer counts of the traced phase, summed over operations. Every
/// field is a pure function of the seed and the number of operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Parser calls (plain or recovering, in-process or batch items).
    pub parses: u64,
    /// Tokens those parser calls consumed.
    pub parse_tokens: u64,
    /// Tokens produced by whole-input tokenization.
    pub tokens_lexed: u64,
    /// Machine steps.
    pub machine_steps: u64,
    /// Prediction steps.
    pub prediction_steps: u64,
    /// Multi-alternative decisions.
    pub decisions: u64,
    /// Decisions resolved by the static LL(1) table.
    pub static_fast_path_hits: u64,
    /// Decisions resolved by SLL.
    pub sll_resolved: u64,
    /// SLL-to-LL failovers.
    pub failovers: u64,
    /// SLL cache lookups.
    pub cache_lookups: u64,
    /// SLL cache hits.
    pub cache_hits: u64,
    /// SLL cache misses.
    pub cache_misses: u64,
    /// Sum of lookahead depths over decisions with a recorded depth.
    pub lookahead_sum: u64,
    /// Decisions with a recorded lookahead depth.
    pub lookahead_n: u64,
    /// Incremental splices.
    pub splices: u64,
    /// Tokens the splices re-lexed.
    pub tokens_relexed: u64,
    /// Tokens the splices carried over.
    pub tokens_reused: u64,
    /// Session reparses.
    pub session_reparses: u64,
    /// Session reparses answered from the cached outcome.
    pub session_reused: u64,
    /// Recovering parser calls.
    pub recovering_parses: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Tokens skipped by recovery.
    pub tokens_skipped: u64,
    /// Trees counted.
    pub trees: u64,
    /// Nodes in those trees.
    pub tree_nodes: u64,
    /// Trees rendered.
    pub renders: u64,
    /// Bytes rendered.
    pub render_bytes: u64,
    /// Source bytes of the files whose trees were rendered.
    pub rendered_source_bytes: u64,
    /// Grammar-analysis cache lookups (`COSTAR_CACHE_DIR` set).
    pub analysis_lookups: u64,
    /// Lookups that found a cache file.
    pub analysis_hits: u64,
}

impl Counts {
    /// Adds one parser call's metrics.
    pub fn add_parse(&mut self, m: &ParseMetrics) {
        self.parses += 1;
        self.parse_tokens += m.tokens as u64;
        self.machine_steps += m.machine_steps;
        self.prediction_steps += m.prediction_steps;
        self.decisions += m.decisions;
        self.static_fast_path_hits += m.static_fast_path_hits;
        self.sll_resolved += m.sll_resolved;
        self.failovers += m.failovers;
        self.cache_lookups += m.cache_lookups;
        self.cache_hits += m.cache_hits;
        self.cache_misses += m.cache_misses;
        self.lookahead_sum += m.lookahead_depth.sum();
        self.lookahead_n += m.lookahead_depth.count();
        self.recoveries += m.recoveries;
        self.tokens_skipped += m.tokens_skipped;
    }
}

/// Shared state of a run: the tracer and what the traced phase counts.
#[derive(Debug)]
pub struct Ctx {
    /// Span recorder (off in untraced phases).
    pub tracer: Tracer,
    /// Layer counts (traced phase only).
    pub counts: Counts,
    /// Per language: parser calls, tokens, nanoseconds (traced phase).
    pub parse: [(u64, u64, u64); 4],
    /// Batch jobs=1 vs jobs=N nanoseconds on the same inputs.
    pub batch_scaling: (u64, u64),
    /// Seeded sampling for the derivation check.
    pub sample: rng::Rng,
}

impl Ctx {
    fn new(trace: bool, seed: u64) -> Self {
        Ctx {
            tracer: Tracer::new(trace),
            counts: Counts::default(),
            parse: [(0, 0, 0); 4],
            batch_scaling: (0, 0),
            sample: rng::Rng::new(rng::mix(seed ^ 0x5A3D)),
        }
    }

    /// Whether this phase records spans and counts.
    pub fn traced(&self) -> bool {
        self.tracer.on()
    }

    /// Records one parser call of `lang`.
    pub fn parse_done(&mut self, lang: Lang, m: &ParseMetrics) {
        self.counts.add_parse(m);
        let e = &mut self.parse[lang.index()];
        e.0 += 1;
        e.1 += m.tokens as u64;
        e.2 += m.total_nanos;
    }

    /// Whether this tree gets the full derivation check (one in `every`).
    pub fn sampled(&mut self, every: usize) -> bool {
        self.sample.below(every) == 0
    }

    /// Opens a span (no-op when untraced).
    pub fn begin(&mut self, name: &'static str) -> usize {
        self.tracer.begin(name)
    }

    /// Closes the innermost span.
    pub fn end(&mut self) {
        self.tracer.end();
    }
}

/// What one operation did.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Wall time of the operation, checks excluded.
    pub wall_ns: u64,
    /// Input tokens the operation lexed and parsed.
    pub tokens: u64,
    /// Whether every known-answer check passed.
    pub ok: bool,
}

/// A workload: prepared inputs plus the operation loop body.
pub trait Workload {
    /// Runs operation `i`.
    fn op(&mut self, i: u64, ctx: &mut Ctx) -> Op;
    /// Peak resident memory the workload's metric reports, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        host::self_peak_rss_mb()
    }
    /// Configured batch worker count (0 when not a batch workload).
    fn jobs(&self) -> usize {
        0
    }
}

/// Builds every language in `langs` with its grammar analysis, inside
/// `ebnf.compile` and `analysis.compute` spans.
pub fn build_langs(langs: &[Lang], ctx: &mut Ctx) -> Vec<Built> {
    langs
        .iter()
        .map(|&lang| {
            ctx.begin("ebnf.compile");
            let language = lang.build();
            ctx.end();
            ctx.begin("analysis.compute");
            let analysis = GrammarAnalysis::compute(language.grammar());
            ctx.end();
            Built {
                lang,
                language,
                analysis,
            }
        })
        .collect()
}

/// Runs `build` once untimed (so the allocator and caches settle), then
/// `reps` times inside `setup` spans, timing each; keeps the last result
/// (earlier ones are dropped before the next build starts).
pub fn repeat_setup<T>(reps: usize, ctx: &mut Ctx, build: impl Fn(&mut Ctx) -> T) -> (T, Vec<f64>) {
    let on = ctx.tracer.on();
    ctx.tracer.set_on(false);
    let mut last = Some(build(ctx));
    ctx.tracer.set_on(on);
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        ctx.begin("setup");
        let built = build(ctx);
        ctx.end();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up"), secs)
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Samples of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-operation wall times, in operation order.
    pub lat_ns: Vec<u64>,
    /// Operation ids, index-aligned with `lat_ns`.
    pub ops: Vec<u64>,
    /// Tokens over all operations.
    pub tokens: u64,
    /// Operations whose checks failed.
    pub failed: u64,
}

impl Phase {
    /// Sum of operation wall times.
    pub fn busy_ns(&self) -> u64 {
        self.lat_ns.iter().sum()
    }

    /// Mean operation wall time in ns.
    pub fn mean_ns(&self) -> f64 {
        self.busy_ns() as f64 / self.lat_ns.len().max(1) as f64
    }
}

fn run_phase(w: &mut dyn Workload, ctx: &mut Ctx, stop: Stop, next_op: &mut u64) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    loop {
        let done = match stop {
            Stop::Time(d) => start.elapsed() >= d,
            Stop::Ops(n) => phase.ops.len() as u64 >= n,
        };
        if done {
            break;
        }
        let i = *next_op;
        *next_op += 1;
        ctx.tracer.set_op(i);
        let op = w.op(i, ctx);
        phase.lat_ns.push(op.wall_ns);
        phase.ops.push(i);
        phase.tokens += op.tokens;
        phase.failed += u64::from(!op.ok);
    }
    phase
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_secs: Vec<f64>,
    /// The phase the end-to-end metrics come from (untraced).
    pub untraced: Option<Phase>,
    /// The traced phase, when tracing.
    pub traced: Option<Phase>,
    /// Spans, counts and per-language parse sums.
    pub ctx: Ctx,
    /// The workload's peak memory metric, MiB.
    pub peak_rss_mb: f64,
    /// Configured batch jobs (0 otherwise).
    pub jobs: usize,
    /// Digest of every generated input: changes with the seed.
    pub input_digest: u64,
}

/// Runs one workload as configured: set-up (repeated), input
/// generation, then the measured phase(s). With `trace` and a time stop
/// the time is split: an untraced half, then a traced half, so the
/// tracing overhead is measured in the same run.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut ctx = Ctx::new(cfg.trace, cfg.seed);
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let (mut workload, setup_secs, input_digest): (Box<dyn Workload>, Vec<f64>, u64) =
        match cfg.workload.as_str() {
            "corpus" => {
                let (w, s, d) = corpus::Corpus::new(cfg, &mut ctx)?;
                (Box::new(w), s, d)
            }
            "editor" => {
                let (w, s, d) = editor::Editor::new(cfg, &mut ctx)?;
                (Box::new(w), s, d)
            }
            "oneshot" => {
                let (w, s, d) = oneshot::OneShot::new(cfg, &mut ctx)?;
                (Box::new(w), s, d)
            }
            "batch" => {
                let (w, s, d) = batch::Batch::new(cfg, &mut ctx)?;
                (Box::new(w), s, d)
            }
            other => return Err(format!("unknown workload {other:?}")),
        };
    let mut next_op = 0u64;
    if let Stop::Time(d) = cfg.stop {
        // Warm-up: operations run untimed until caches fill.
        let on = ctx.tracer.on();
        ctx.tracer.set_on(false);
        run_phase(
            workload.as_mut(),
            &mut ctx,
            Stop::Time(d / 10),
            &mut next_op,
        );
        ctx.tracer.set_on(on);
    }
    let (untraced, traced) = match (cfg.trace, cfg.stop) {
        (false, stop) => (
            Some(run_phase(workload.as_mut(), &mut ctx, stop, &mut next_op)),
            None,
        ),
        (true, Stop::Time(d)) => {
            ctx.tracer.set_on(false);
            let plain = run_phase(workload.as_mut(), &mut ctx, Stop::Time(d / 2), &mut next_op);
            ctx.tracer.set_on(true);
            let traced = run_phase(workload.as_mut(), &mut ctx, Stop::Time(d / 2), &mut next_op);
            (Some(plain), Some(traced))
        }
        (true, stop) => (
            None,
            Some(run_phase(workload.as_mut(), &mut ctx, stop, &mut next_op)),
        ),
    };
    Ok(Outcome {
        setup_secs,
        untraced,
        traced,
        peak_rss_mb: workload.peak_rss_mb(),
        jobs: workload.jobs(),
        ctx,
        input_digest,
    })
}
