//! Turning a run into named metrics, and the one-line JSON result.

use crate::stats::{median, percentile, tail};
use crate::{Outcome, Phase};
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
    /// How to read the value, when it needs saying.
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.to_owned(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
        note: String::new(),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end metrics of the measured (untraced) phase.
pub fn end_to_end(o: &Outcome, phase: &Phase) -> Vec<Metric> {
    let n = phase.lat_ns.len() as u64;
    let busy_s = phase.busy_ns() as f64 / 1e9;
    let mut ms: Vec<f64> = phase.lat_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    let (tail_p, tail_v) = tail(&ms);
    let reps = o.setup_secs.len() as u64;
    let mut out = vec![
        metric("setup_s", median(&o.setup_secs), "s", reps),
        metric("tokens_per_s", phase.tokens as f64 / busy_s, "1/s", n),
        metric("ops_per_s", n as f64 / busy_s, "1/s", n),
        metric("op_p50_ms", percentile(&ms, 50.0), "ms", n),
        metric("op_p99_ms", tail_v, "ms", n),
        metric("ok_op_ratio", 1.0 - ratio(phase.failed, n), "ratio", n),
        metric("peak_rss_mb", o.peak_rss_mb, "MiB", 1),
    ];
    out[0].note = "median of the set-up repetitions".into();
    out[1].note = "per second of operation wall time, checks excluded".into();
    if tail_p < 99.0 {
        out[4].note = format!("p{tail_p}: too few samples for ten beyond p99");
    }
    out[5].note = format!("failed_op_ratio = {}", ratio(phase.failed, n));
    out
}

/// The per-layer metrics of the traced phase.
pub fn per_layer(o: &Outcome, traced: &Phase) -> Vec<Metric> {
    let ctx = &o.ctx;
    let c = &ctx.counts;
    let spans = ctx.tracer.by_name();
    let mean = |name: &str, own: bool| -> (f64, u64) {
        spans.get(name).map_or((0.0, 0), |&(calls, dur, selft)| {
            let ns = if own { selft } else { dur };
            (ns as f64 / calls.max(1) as f64 / 1e6, calls)
        })
    };
    let self_ms = |name: &str| mean(name, true);
    let mut out = Vec::new();
    let mut push =
        |name: &str, (v, n): (f64, u64), unit: &'static str| out.push(metric(name, v, unit, n));

    for lang in crate::lang::Lang::ALL {
        let (calls, tokens, ns) = ctx.parse[lang.index()];
        push(
            &format!("parser.parse_ms.{}", lang.key()),
            (ns as f64 / calls.max(1) as f64 / 1e6, calls),
            "ms",
        );
        push(
            &format!("parser.tokens_per_s.{}", lang.key()),
            (
                if ns == 0 {
                    0.0
                } else {
                    tokens as f64 / (ns as f64 / 1e9)
                },
                calls,
            ),
            "1/s",
        );
    }
    let per_parse = |v: u64| (ratio(v, c.parses), c.parses);
    push("parser.machine_steps", per_parse(c.machine_steps), "count");
    push(
        "parser.prediction_steps",
        per_parse(c.prediction_steps),
        "count",
    );
    push("prediction.decisions", per_parse(c.decisions), "count");
    push(
        "prediction.static_fast_path_ratio",
        (ratio(c.static_fast_path_hits, c.decisions), c.decisions),
        "ratio",
    );
    push(
        "prediction.sll_resolved",
        per_parse(c.sll_resolved),
        "count",
    );
    push("prediction.failovers", per_parse(c.failovers), "count");
    push(
        "prediction.cache_hit_ratio",
        (ratio(c.cache_hits, c.cache_lookups), c.cache_lookups),
        "ratio",
    );
    push(
        "prediction.mean_lookahead",
        (ratio(c.lookahead_sum, c.lookahead_n), c.lookahead_n),
        "count",
    );

    let (tok_ms, tok_n) = self_ms("lexer.tokenize");
    push("lexer.tokenize_ms", (tok_ms, tok_n), "ms");
    let tok_s = tok_ms * tok_n as f64 / 1e3;
    push(
        "lexer.tokens_per_s",
        (
            if tok_s > 0.0 {
                c.tokens_lexed as f64 / tok_s
            } else {
                0.0
            },
            tok_n,
        ),
        "1/s",
    );
    push("lexer.splice_ms", self_ms("lexer.splice"), "ms");
    push(
        "lexer.tokens_relexed",
        (ratio(c.tokens_relexed, c.splices), c.splices),
        "count",
    );
    push(
        "lexer.tokens_reused",
        (ratio(c.tokens_reused, c.splices), c.splices),
        "count",
    );

    push(
        "tree.nodes",
        (ratio(c.tree_nodes, c.trees), c.trees),
        "count",
    );
    push("tree.drop_ms", self_ms("tree.drop"), "ms");
    push("tree.render_ms", self_ms("tree.render"), "ms");
    push(
        "tree.render_bytes",
        (ratio(c.render_bytes, c.renders), c.renders),
        "bytes",
    );
    push(
        "tree.render_growth",
        (ratio(c.render_bytes, c.rendered_source_bytes), c.renders),
        "ratio",
    );

    push("analysis.compute_ms", self_ms("analysis.compute"), "ms");
    push("analysis.replay_ms", self_ms("analysis.replay"), "ms");
    push("analysis.write_ms", self_ms("analysis.write"), "ms");
    push(
        "analysis.cache_hit_ratio",
        (
            ratio(c.analysis_hits, c.analysis_lookups),
            c.analysis_lookups,
        ),
        "ratio",
    );
    push("ebnf.compile_ms", self_ms("ebnf.compile"), "ms");

    push("recover.parse_ms", self_ms("recover.parse"), "ms");
    push(
        "recover.recoveries",
        (
            ratio(c.recoveries, c.recovering_parses),
            c.recovering_parses,
        ),
        "count",
    );
    push(
        "recover.tokens_skipped",
        (
            ratio(c.tokens_skipped, c.recovering_parses),
            c.recovering_parses,
        ),
        "count",
    );
    push("session.reparse_ms", mean("session.reparse", false), "ms");
    push(
        "session.reused_ratio",
        (
            ratio(c.session_reused, c.session_reparses),
            c.session_reparses,
        ),
        "ratio",
    );

    push("batch.parse_many_ms", self_ms("batch.parse_many"), "ms");
    push("batch.jobs", (o.jobs as f64, 1), "count");
    let (one, many) = ctx.batch_scaling;
    if many > 0 {
        let speedup = one as f64 / many as f64;
        push("batch.speedup_vs_jobs1", (speedup, 1), "ratio");
        push(
            "batch.efficiency",
            (speedup / o.jobs.max(1) as f64, 1),
            "ratio",
        );
    } else if o.jobs == 0 {
        push("batch.speedup_vs_jobs1", (0.0, 0), "ratio");
        push("batch.efficiency", (0.0, 0), "ratio");
    }

    push("io.read_ms", self_ms("io.read"), "ms");
    push("cli.process_ms", mean("cli.process", false), "ms");

    // Reconciliation: per operation, wall time = layer self times +
    // unattributed time.
    let layers = ctx.tracer.layer_self_by_op();
    let mut wall = 0u64;
    let mut unattributed = 0i128;
    for (&op, &w) in traced.ops.iter().zip(&traced.lat_ns) {
        let l = layers.get(&op).copied().unwrap_or(0);
        wall += w;
        unattributed += i128::from(w) - i128::from(l);
    }
    let n_ops = traced.ops.len() as u64;
    let unattributed_ms = unattributed as f64 / n_ops.max(1) as f64 / 1e6;
    push("cli.unattributed_ms", (unattributed_ms, n_ops), "ms");
    push(
        "trace.unattributed_share",
        (
            if wall == 0 {
                0.0
            } else {
                unattributed as f64 / wall as f64
            },
            n_ops,
        ),
        "ratio",
    );
    let overhead = o
        .untraced
        .as_ref()
        .map_or(0.0, |u| traced.mean_ns() / u.mean_ns().max(1.0));
    push("trace.overhead_ratio", (overhead, n_ops), "ratio");
    out
}

/// Layers a host could not measure, reported by name instead of a value.
pub fn skipped(o: &Outcome) -> Vec<&'static str> {
    if o.jobs == 1 {
        vec!["batch.speedup_vs_jobs1", "batch.efficiency"]
    } else {
        Vec::new()
    }
}

/// The last line of the output: `correct`, `attempted`, `failed` and the
/// metrics object.
pub fn json_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && attempted > 0
    );
    for (k, m) in metrics.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
