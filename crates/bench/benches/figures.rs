//! Criterion benches: one group per paper table/figure plus the
//! ablations. Each group wraps the same workloads as the corresponding
//! `costar-bench` harness function, sized so `cargo bench --workspace`
//! completes in minutes while still exercising every experiment.
//!
//! * `fig8_grammar_stats` — grammar construction + analysis per language
//!   (the static half of the Fig. 8 table).
//! * `fig9_costar_scaling` — CoStar parse time at three input sizes per
//!   language: the linearity experiment's core measurement.
//! * `fig10_slowdown` — CoStar vs AntlrSim vs lexing on the same file.
//! * `fig11_cache_warmup` — cold-cache vs warmed-cache AntlrSim runs on
//!   the Python corpus.
//! * `ablation_*` — the design-choice ablations from DESIGN.md, plus
//!   `ablation_budget_overhead`, which prices the resource-governance
//!   layer (budget metering and cache caps) against an ungoverned parse,
//!   and `ablation_observer_overhead`, which prices the observability
//!   layer: the monomorphized NullObserver path must cost the same as a
//!   plain parse, and the metrics/trace observers must stay cheap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use costar::{
    Budget, CachePolicy, Edit, EditSession, MetricsObserver, NullObserver, Parser, PredictionMode,
    TraceObserver,
};
use costar_baselines::AntlrSim;
use costar_bench::synthetic_grammar;
use costar_grammar::analysis::GrammarAnalysis;
use costar_langs::all_languages;

fn fig8_grammar_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_grammar_stats");
    group.sample_size(10);
    for (lang, _) in all_languages() {
        let grammar = lang.grammar().clone();
        group.bench_function(BenchmarkId::from_parameter(lang.name), |b| {
            b.iter(|| GrammarAnalysis::compute(black_box(&grammar)))
        });
    }
    group.finish();
}

fn fig9_costar_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_costar_scaling");
    group.sample_size(10);
    for (lang, generate) in all_languages() {
        for size in [500usize, 2_000, 8_000] {
            let src = generate(42, size);
            let word = lang.tokenize(&src).expect("corpus lexes");
            let mut parser = Parser::new(lang.grammar().clone());
            assert!(parser.parse(&word).is_accept());
            group.throughput(Throughput::Elements(word.len() as u64));
            group.bench_function(BenchmarkId::new(lang.name, word.len()), |b| {
                b.iter(|| parser.parse(black_box(&word)))
            });
        }
    }
    group.finish();
}

fn fig10_slowdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_slowdown");
    group.sample_size(10);
    for (lang, generate) in all_languages() {
        let src = generate(7, 4_000);
        let word = lang.tokenize(&src).expect("corpus lexes");
        group.throughput(Throughput::Elements(word.len() as u64));

        let mut costar = Parser::new(lang.grammar().clone());
        assert!(costar.parse(&word).is_accept());
        group.bench_function(BenchmarkId::new("costar", lang.name), |b| {
            b.iter(|| costar.parse(black_box(&word)))
        });

        let mut antlr = AntlrSim::with_cold_cache(lang.grammar().clone());
        assert!(antlr.parse(&word).is_accept());
        group.bench_function(BenchmarkId::new("antlr_sim", lang.name), |b| {
            b.iter(|| antlr.parse(black_box(&word)))
        });

        group.bench_function(BenchmarkId::new("lexer", lang.name), |b| {
            b.iter(|| lang.tokenize(black_box(&src)))
        });
    }
    group.finish();
}

fn fig11_cache_warmup(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_cache_warmup");
    group.sample_size(10);
    let (lang, generate) = all_languages()
        .into_iter()
        .find(|(l, _)| l.name == "Python")
        .expect("Python present");
    for size in [300usize, 4_000] {
        let src = generate(11, size);
        let word = lang.tokenize(&src).expect("corpus lexes");
        group.throughput(Throughput::Elements(word.len() as u64));

        let mut cold = AntlrSim::with_cold_cache(lang.grammar().clone());
        assert!(cold.parse(&word).is_accept());
        group.bench_function(BenchmarkId::new("cold", word.len()), |b| {
            b.iter(|| cold.parse(black_box(&word)))
        });

        let mut warm = AntlrSim::new(lang.grammar().clone());
        warm.warm_up(std::slice::from_ref(&word));
        group.bench_function(BenchmarkId::new("warm", word.len()), |b| {
            b.iter(|| warm.parse(black_box(&word)))
        });
    }
    group.finish();
}

fn ablation_sll_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sll_cache");
    group.sample_size(10);
    for (lang, generate) in all_languages() {
        let src = generate(3, 1_500);
        let word = lang.tokenize(&src).expect("corpus lexes");
        group.throughput(Throughput::Elements(word.len() as u64));

        let mut adaptive = Parser::new(lang.grammar().clone());
        assert!(adaptive.parse(&word).is_accept());
        group.bench_function(BenchmarkId::new("adaptive", lang.name), |b| {
            b.iter(|| adaptive.parse(black_box(&word)))
        });

        let mut ll_only = Parser::new(lang.grammar().clone());
        ll_only.set_prediction_mode(PredictionMode::LlOnly);
        assert!(ll_only.parse(&word).is_accept());
        group.bench_function(BenchmarkId::new("ll_only", lang.name), |b| {
            b.iter(|| ll_only.parse(black_box(&word)))
        });
    }
    group.finish();
}

fn ablation_cache_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_cache_reuse");
    group.sample_size(10);
    for (lang, generate) in all_languages() {
        // Many small files: where cross-input reuse pays.
        let words: Vec<_> = (0..12u64)
            .map(|s| {
                let src = generate(s, 120);
                lang.tokenize(&src).expect("corpus lexes")
            })
            .collect();

        let mut fresh = Parser::new(lang.grammar().clone());
        group.bench_function(BenchmarkId::new("per_input", lang.name), |b| {
            b.iter(|| words.iter().map(|w| fresh.parse(black_box(w))).count())
        });

        let mut reuse = Parser::new(lang.grammar().clone());
        reuse.set_cache_policy(CachePolicy::Persistent);
        group.bench_function(BenchmarkId::new("reuse", lang.name), |b| {
            b.iter(|| words.iter().map(|w| reuse.parse(black_box(w))).count())
        });
    }
    group.finish();
}

fn ablation_grammar_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_grammar_size");
    group.sample_size(10);
    for width in [10usize, 40, 160] {
        let (grammar, word) = synthetic_grammar(width);
        let mut parser = Parser::new(grammar);
        assert!(parser.parse(&word).is_accept());
        group.throughput(Throughput::Elements(word.len() as u64));
        group.bench_function(BenchmarkId::from_parameter(width), |b| {
            b.iter(|| parser.parse(black_box(&word)))
        });
    }
    group.finish();
}

fn ablation_budget_overhead(c: &mut Criterion) {
    // Cost of resource governance on the hot path: an unlimited budget
    // (one saturating counter add per step), a derived fuel bound plus
    // deadline (counter compare + amortized clock read), and a capped
    // cache (LRU bookkeeping on every intern/lookup). All three must
    // accept the same inputs; the delta is the bench's entire point.
    let mut group = c.benchmark_group("ablation_budget_overhead");
    group.sample_size(10);
    for (lang, generate) in all_languages() {
        let src = generate(11, 1_500);
        let word = lang.tokenize(&src).expect("corpus lexes");
        group.throughput(Throughput::Elements(word.len() as u64));

        let mut unlimited = Parser::new(lang.grammar().clone());
        assert!(unlimited.parse(&word).is_accept());
        group.bench_function(BenchmarkId::new("unlimited", lang.name), |b| {
            b.iter(|| unlimited.parse(black_box(&word)))
        });

        let budget = Budget::derived(lang.grammar(), word.len())
            .with_deadline(std::time::Duration::from_secs(600));
        let mut governed = Parser::new(lang.grammar().clone());
        governed.set_budget(budget);
        assert!(governed.parse(&word).is_accept());
        group.bench_function(BenchmarkId::new("derived_budget", lang.name), |b| {
            b.iter(|| governed.parse(black_box(&word)))
        });

        let mut capped = Parser::new(lang.grammar().clone());
        capped.set_budget(Budget::unlimited().with_max_cache_entries(64));
        assert!(capped.parse(&word).is_accept());
        group.bench_function(BenchmarkId::new("cache_cap_64", lang.name), |b| {
            b.iter(|| capped.parse(black_box(&word)))
        });
    }
    group.finish();
}

fn ablation_static_fast_path(c: &mut Criterion) {
    // Cost of consulting the precompiled decision table on the hot path
    // versus always running full adaptive prediction. On heavily-LL(1)
    // grammars (JSON is 5/5) the "fast_path" arm should win by skipping
    // SLL simulation and cache traffic entirely; "no_table" prices what
    // prediction costs without the static analysis.
    let mut group = c.benchmark_group("ablation_static_fast_path");
    group.sample_size(10);
    for (lang, generate) in all_languages() {
        let src = generate(23, 1_500);
        let word = lang.tokenize(&src).expect("corpus lexes");
        group.throughput(Throughput::Elements(word.len() as u64));

        let mut fast = Parser::new(lang.grammar().clone());
        assert!(fast.parse(&word).is_accept());
        group.bench_function(BenchmarkId::new("fast_path", lang.name), |b| {
            b.iter(|| fast.parse(black_box(&word)))
        });

        let mut full = Parser::new(lang.grammar().clone());
        full.set_prediction_mode(PredictionMode::AdaptiveNoStatic);
        assert!(full.parse(&word).is_accept());
        group.bench_function(BenchmarkId::new("no_table", lang.name), |b| {
            b.iter(|| full.parse(black_box(&word)))
        });
    }
    group.finish();
}

fn ablation_incremental(c: &mut Criterion) {
    // Incremental lexing: splicing a single-token edit into a live
    // EditSession vs re-lexing the whole file from scratch. The edit
    // replaces the mid-file token's lexeme with itself — each iteration
    // pays the same restart→resync relex cost as a real same-size change
    // while leaving the session unchanged, so no per-iteration setup is
    // needed. Python is absent: its INDENT/DEDENT synthesis is
    // line-global, so it has no incremental path to measure.
    let mut group = c.benchmark_group("ablation_incremental");
    group.sample_size(10);
    for (lang, generate) in all_languages() {
        if !lang.incremental_lexing() {
            continue;
        }
        let src = generate(29, 4_000);
        let mut session = EditSession::new(lang.lexer(), &src).expect("corpus lexes");
        let mid = session.tokens()[session.tokens().len() / 2].clone();
        let span = mid.span();
        let edit = Edit::new(span.offset..span.offset + span.len, mid.lexeme().to_owned());
        assert!(session.apply(&edit).is_ok());
        group.throughput(Throughput::Bytes(src.len() as u64));

        group.bench_function(BenchmarkId::new("splice", lang.name), |b| {
            b.iter(|| session.apply(black_box(&edit)).expect("self-splice lexes"))
        });
        group.bench_function(BenchmarkId::new("full_relex", lang.name), |b| {
            b.iter(|| lang.tokenize(black_box(&src)))
        });
    }
    group.finish();
}

fn ablation_observer_overhead(c: &mut Criterion) {
    // Cost of the observability layer per observer flavor. The "null"
    // arms are the ≤2%-overhead acceptance check: `parse` *is*
    // `run(word, false, &mut NullObserver)`, monomorphized with `on_event`
    // an empty inline default, so the two must time identically — any
    // spread between them is measurement noise, and any spread between
    // them and the pre-observer parser is the layer's true cost.
    let mut group = c.benchmark_group("ablation_observer_overhead");
    group.sample_size(10);
    for (lang, generate) in all_languages() {
        let src = generate(17, 1_500);
        let word = lang.tokenize(&src).expect("corpus lexes");
        group.throughput(Throughput::Elements(word.len() as u64));

        let mut parser = Parser::new(lang.grammar().clone());
        assert!(parser.parse(&word).is_accept());
        group.bench_function(BenchmarkId::new("plain", lang.name), |b| {
            b.iter(|| parser.parse(black_box(&word)))
        });
        group.bench_function(BenchmarkId::new("null", lang.name), |b| {
            b.iter(|| parser.run(black_box(&word), false, &mut NullObserver))
        });
        group.bench_function(BenchmarkId::new("metrics", lang.name), |b| {
            b.iter(|| parser.parse_with_metrics(black_box(&word)))
        });
        group.bench_function(BenchmarkId::new("trace", lang.name), |b| {
            b.iter(|| {
                let mut obs = (MetricsObserver::new(), TraceObserver::new(256));
                parser.run(black_box(&word), false, &mut obs)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    fig8_grammar_stats,
    fig9_costar_scaling,
    fig10_slowdown,
    fig11_cache_warmup,
    ablation_sll_cache,
    ablation_cache_reuse,
    ablation_grammar_size,
    ablation_budget_overhead,
    ablation_static_fast_path,
    ablation_incremental,
    ablation_observer_overhead
);
criterion_main!(benches);
