//! `costar` — command-line front end for the CoStar ALL(*) parser.
//!
//! ```text
//! costar parse    (--lang json|xml|dot|python FILE) | (--grammar G.ebnf --tokens "a b c")
//!                 [--tree] [--stats[=json]] [--time] [--trace-buffer N]
//!                 [--max-steps N|auto] [--deadline-ms N] [--cache-cap N]
//! costar check    (--lang L) | (--grammar G.ebnf)  [--eliminate-lr]
//! costar lint     (--lang L) | (--grammar G.ebnf)  [--format=human|json]
//! costar analyze  (--lang L) | (--grammar G.ebnf)  [--format=human|json]
//! costar audit    (--lang L) | (--grammar G.ebnf)  [--format=human|json] [--max-lookahead K]
//! costar cost     (--lang L) | (--grammar G.ebnf)  [--format=human|json] [--max-steps-per-token N]
//! costar generate --lang L [--size N] [--seed S]
//! costar tokens   --lang L FILE
//! ```
//!
//! `parse` runs the verified-style ALL(*) parser and reports
//! `Unique` / `Ambig` / `Reject` (with position) / `Error`; because the
//! parser is a decision procedure (paper §1), those are the only possible
//! outcomes with an unlimited budget. The budget flags bound the work the
//! parser may do: `--max-steps` caps machine operations plus prediction
//! lookahead, `--deadline-ms` sets a wall-clock limit, and `--cache-cap`
//! bounds the SLL cache (which degrades by LRU eviction, never by abort).
//! A spent step or time budget reports `aborted` — neither accept nor
//! reject — and exits with code 3. `check` runs the static analyses:
//! grammar sizes, the left-recursion decision procedure (paper §8 future
//! work), and an LL(1)-class check via the baseline generator. `lint`
//! goes further: it runs the reachability, productivity, left-recursion,
//! and LL(1)-conflict analyses and reports *structured diagnostics*
//! (codes L001–L008, each with a severity and a concrete witness such as
//! a left-recursion cycle `S ⇒ A ⇒ S`), exiting 0 when clean, 1 when
//! there are findings, and 2 when the grammar cannot be loaded;
//! `--format=json` emits the diagnostics as one machine-readable JSON
//! object on stdout. `analyze` reports the static decision table the
//! parser precompiles: every multi-alternative nonterminal classified as
//! `ll1` / `sll-safe` / `needs-full-allstar` from the static SLL closure
//! graph, with lookahead-map sizes and conflict witnesses; it shares
//! lint's exit-code contract, where a finding is a proven-ambiguous
//! decision pair. `audit` goes one step further than `analyze`: for every
//! decision point it certifies the *exact* minimum SLL lookahead bound k
//! (with a collide witness proving k−1 tokens cannot decide, and a
//! resolve witness spot-checking that k tokens do), flags dead
//! alternatives (L009, error) and shadowed alternatives (L010, warning),
//! and — with `--max-lookahead K` — notes decisions whose certified bound
//! exceeds K (L011); `--format=json` prints the machine-checkable
//! `costar-cert-v1` certificate, byte-identical to the one embedded in
//! the on-disk grammar-analysis cache and replayed at load time. `cost`
//! reports the static cost certificate derived from the termination
//! measure: per-grammar constants `(a, b)` such that any accepting or
//! rejecting parse of `n` tokens consumes at most `a·n + b` metered
//! steps (prediction included). It warns (L012) when an
//! unbounded-lookahead decision is reachable from a token-free cycle —
//! the superlinear-prediction risk — and, with `--max-steps-per-token
//! N`, notes (L013) a certified per-token cost above N; `--format=json`
//! prints the `costar-cost-v1` certificate embedded in (and replayed
//! from) the grammar cache. `--max-steps auto` turns the certificate
//! into fuel: each input parses under a budget of `a·n + b` steps for
//! its own token count `n`, so an abort under auto fuel is evidence of a
//! parser or certificate bug, never of a large input.
//!
//! Observability: `--stats` prints a human-readable metrics summary on
//! stderr (so it composes with `--tree` output on stdout); `--stats=json`
//! prints the full [`costar::ParseMetrics`] object as one JSON line on
//! stdout and moves the human verdict line to stderr, so stdout is
//! machine-readable. `--trace-buffer N` retains the last N parse events
//! in a ring buffer and dumps them to stderr whenever the parse does not
//! accept — a bounded post-mortem of what the machine was doing.

use costar::{
    exit_code, BatchItemResult, BatchParser, Budget, Edit, EditError, NullObserver, ParseOutcome,
    Parser, TraceObserver,
};
use costar_baselines::Ll1Parser;
use costar_grammar::analysis::GrammarAnalysis;
use costar_grammar::json::{self, JsonWriter};
use costar_grammar::transform::eliminate_left_recursion;
use costar_grammar::{Grammar, Token};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

mod args;
mod edit_script;
mod render;

use args::{Args, Command, GrammarSource, LintFormat, MaxSteps, RecoverMode, StatsMode};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<ExitCode, String> {
    match args.command {
        Command::Parse {
            source,
            inputs,
            tree,
            stats,
            time,
            trace_buffer,
            max_steps,
            deadline_ms,
            cache_cap,
            recover,
            max_recoveries,
            no_grammar_cache,
            jobs,
            warm_cache,
        } => {
            let mut budget = Budget::unlimited();
            match max_steps {
                Some(MaxSteps::Fixed(n)) => budget = budget.with_max_steps(n),
                Some(MaxSteps::Auto) => budget = budget.with_auto_steps(),
                None => {}
            }
            if let Some(ms) = deadline_ms {
                budget = budget.with_deadline(std::time::Duration::from_millis(ms));
            }
            if let Some(n) = cache_cap {
                budget = budget.with_max_cache_entries(n);
            }
            if let Some(n) = max_recoveries {
                budget = budget.with_max_recoveries(n);
            }
            cmd_parse(
                source,
                inputs,
                budget,
                ParseOpts {
                    tree,
                    stats,
                    time,
                    trace_buffer,
                    recover,
                    no_grammar_cache,
                    jobs,
                    warm_cache,
                },
            )
        }
        Command::Check {
            source,
            eliminate_lr,
        } => cmd_check(source, eliminate_lr),
        Command::Lint { source, format } => Ok(cmd_lint(source, format)),
        Command::Analyze { source, format } => Ok(cmd_analyze(source, format)),
        Command::Audit {
            source,
            format,
            max_lookahead,
        } => Ok(cmd_audit(source, format, max_lookahead)),
        Command::Cost {
            source,
            format,
            max_steps_per_token,
        } => Ok(cmd_cost(source, format, max_steps_per_token)),
        Command::Generate { lang, size, seed } => {
            let generate = args::find_generator(&lang)?;
            print!("{}", generate(seed, size));
            Ok(ExitCode::SUCCESS)
        }
        Command::Edit {
            lang,
            file,
            script,
            format,
            oracle,
        } => cmd_edit(&lang, &file, &script, format, oracle),
        Command::Tokens { lang, file } => {
            let language = args::find_language(&lang)?;
            let src = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
            let tokens = language.tokenize(&src).map_err(|e| e.to_string())?;
            for t in &tokens {
                println!(
                    "{}\t{:?}\t@{}",
                    language.grammar().symbols().terminal_name(t.terminal()),
                    t.lexeme(),
                    t.offset()
                );
            }
            eprintln!("{} tokens", tokens.len());
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Loads a grammar, its analysis and every input word from the
/// parse-command sources. Words and display names are index-aligned. A
/// built-in language loads the analysis it ships with; a `--grammar`
/// file goes through the disk cache. `no_cache` uses no stored analysis
/// of either kind.
#[allow(clippy::type_complexity)]
fn load_many(
    source: GrammarSource,
    inputs: Vec<String>,
    no_cache: bool,
) -> Result<(Grammar, GrammarAnalysis, Vec<Vec<Token>>, Vec<String>), String> {
    match source {
        GrammarSource::Lang(name) => {
            let language = args::find_language(&name)?;
            if inputs.is_empty() {
                return Err("parse --lang needs at least one input FILE".into());
            }
            let mut words = Vec::with_capacity(inputs.len());
            for file in &inputs {
                let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
                words.push(
                    language
                        .tokenize(&src)
                        .map_err(|e| format!("{file}: {e}"))?,
                );
            }
            let analysis = if no_cache {
                GrammarAnalysis::compute(language.grammar())
            } else {
                language.analysis()
            };
            Ok((language.grammar().clone(), analysis, words, inputs))
        }
        GrammarSource::Ebnf(path) => {
            let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let (grammar, _) = costar_ebnf::compile(&src)?;
            let names = inputs
                .into_iter()
                .next()
                .ok_or("parse --grammar needs --tokens \"name name ...\"")?;
            let mut tokens = Vec::new();
            for name in names.split_whitespace() {
                let t = grammar
                    .symbols()
                    .lookup_terminal(name)
                    .ok_or_else(|| format!("unknown terminal {name:?}"))?;
                tokens.push(Token::new(t, name));
            }
            let analysis = cached_analysis(&grammar, &path, no_cache);
            Ok((grammar, analysis, vec![tokens], vec!["<tokens>".to_owned()]))
        }
    }
}

/// Obtains the analysis of the grammar read from the file `grammar_path`,
/// consulting the on-disk cache unless `no_cache`. The cache is keyed by
/// a content fingerprint of the grammar, so a stale or corrupted entry is
/// detected (the decoder re-validates every index) and silently
/// recomputed — the cache can slow us down at worst, never change
/// behavior. It lives in `.costar-cache` next to the grammar file;
/// `COSTAR_CACHE_DIR` overrides that. Cache write failures are non-fatal.
fn cached_analysis(grammar: &Grammar, grammar_path: &str, no_cache: bool) -> GrammarAnalysis {
    if no_cache {
        return GrammarAnalysis::compute(grammar);
    }
    let dir = std::env::var_os("COSTAR_CACHE_DIR")
        .map(PathBuf::from)
        .or_else(|| {
            PathBuf::from(grammar_path)
                .parent()
                .map(|d| d.join(".costar-cache"))
        });
    let Some(dir) = dir else {
        return GrammarAnalysis::compute(grammar);
    };
    let fp = costar_grammar::analysis::grammar_fingerprint(grammar);
    let file = dir.join(format!("{}.json", json::fingerprint_hex(fp)));
    if let Ok(text) = std::fs::read_to_string(&file) {
        if let Some(analysis) = costar_grammar::analysis::from_cache_json(grammar, &text) {
            return analysis;
        }
        // Corrupt or stale: fall through and overwrite below.
    }
    let analysis = GrammarAnalysis::compute(grammar);
    let json = costar_grammar::analysis::to_cache_json(grammar, &analysis);
    // Atomic write with a per-process-per-write staging name: readers
    // never observe a half-written document, and concurrent `costar`
    // invocations can't clobber each other's staging file mid-write.
    let _ = costar_grammar::analysis::write_cache_atomic(&file, &json);
    analysis
}

/// Output and recovery flags for `cmd_parse`, bundled so the budget and
/// grammar source stay visible in the signature.
struct ParseOpts {
    tree: bool,
    stats: StatsMode,
    time: bool,
    trace_buffer: Option<usize>,
    recover: RecoverMode,
    no_grammar_cache: bool,
    jobs: Option<usize>,
    warm_cache: bool,
}

/// The single-file arm of `costar parse`. Plain and `--recover` parses
/// share one driver call; they differ only in how the result is reported:
/// a recovering parse prints one stderr diagnostic per recovered error
/// and exits 4 when the input parsed with errors.
fn cmd_parse(
    source: GrammarSource,
    inputs: Vec<String>,
    budget: Budget,
    opts: ParseOpts,
) -> Result<ExitCode, String> {
    let (grammar, analysis, mut words, names) = load_many(source, inputs, opts.no_grammar_cache)?;
    if words.len() > 1 {
        return cmd_parse_batch(grammar, analysis, &names, &words, budget, &opts);
    }
    let tokens = words.pop().unwrap_or_default();
    let ParseOpts {
        tree,
        stats,
        time,
        trace_buffer,
        recover,
        ..
    } = opts;
    let mut parser = Parser::with_analysis(grammar, analysis);
    parser.set_budget(budget);
    if !parser.grammar_is_safe() {
        eprintln!(
            "warning: grammar is left-recursive; the correctness theorems do not apply \
             (try `costar check --eliminate-lr`)"
        );
    }
    let recovering = recover != RecoverMode::Off;

    // The default path stays on the monomorphized no-op observer; metrics
    // and tracing are only wired in when a flag asks for them.
    let observing = stats != StatsMode::Off || trace_buffer.is_some();
    let start = Instant::now();
    let (recovered, metrics, trace) = if observing {
        let trace = TraceObserver::new(trace_buffer.unwrap_or(0));
        let (recovered, metrics, trace) = parser.run_measured(&tokens, recovering, trace);
        (recovered, Some(metrics), Some(trace))
    } else {
        let recovered = parser.run(&tokens, recovering, &mut NullObserver);
        (recovered, None, None)
    };
    let elapsed = start.elapsed();
    let g = parser.grammar();

    // Human-readable diagnostics always go to stderr, one line per
    // recovered error, so they compose with --tree / JSON on stdout.
    for d in &recovered.diagnostics {
        eprintln!("error: {}", render::describe_diagnostic(g, d));
    }
    let n = tokens.len();
    let line = match (&recovered.outcome, recovering) {
        (ParseOutcome::Unique(_) | ParseOutcome::Ambig(_), true) => {
            format!("parsed cleanly ({n} tokens, no recovery needed)")
        }
        (ParseOutcome::Unique(t), false) => {
            format!("unique parse ({n} tokens, {} tree nodes)", t.size())
        }
        (ParseOutcome::Ambig(t), false) => format!(
            "AMBIGUOUS input ({n} tokens); one of its parse trees has {} nodes",
            t.size()
        ),
        (ParseOutcome::Reject(_), true) => {
            let errors = recovered.diagnostics.len();
            let skipped: usize = recovered.diagnostics.iter().map(|d| d.skipped).sum();
            format!(
                "parsed with {errors} syntax error{} ({n} tokens, {skipped} skipped)",
                if errors == 1 { "" } else { "s" }
            )
        }
        (ParseOutcome::Reject(reason), false) => {
            format!("reject: {}", render::describe_reject(g, reason))
        }
        (ParseOutcome::Error(e), _) => format!("error: {}", render::describe_error(g, e)),
        (ParseOutcome::Aborted(r), true) => {
            format!("aborted: {r} — recovery gave up before resolving the input")
        }
        (ParseOutcome::Aborted(r), false) => format!(
            "aborted: {r} — input neither accepted nor rejected \
             (raise --max-steps/--deadline-ms to resolve it)"
        ),
    };
    let code = ExitCode::from(exit_code(&recovered.outcome, &recovered.diagnostics));
    // The verdict line goes to stdout, except under `--recover` (status
    // lines on stderr) and `--stats=json` (stdout carries the report).
    if recovering || stats == StatsMode::Json {
        eprintln!("{line}");
    } else {
        println!("{line}");
    }
    if tree {
        if let Some(t) = recovered.tree() {
            print!("{}", t.render(g.symbols()));
        }
    }

    // Post-mortem trace: only when a buffer was requested and the parse
    // did not accept cleanly.
    if let (Some(t), Some(_), false) = (&trace, trace_buffer, recovered.is_clean()) {
        eprintln!("trace: last {} of {} events:", t.len(), t.total_events());
        eprint!("{}", t.dump(Some(g.symbols())));
    }

    match (stats, metrics.as_ref()) {
        (StatsMode::Human, Some(m)) if recovering => eprintln!(
            "recovery: {} recoveries, {} tokens skipped; steps: {} machine + {} prediction",
            m.recoveries, m.tokens_skipped, m.machine_steps, m.prediction_steps
        ),
        (StatsMode::Human, Some(m)) => {
            eprintln!(
                "decisions: {} (+{} single-alt), static fast path {}, SLL-resolved {}, \
                 failovers {}, lookahead mean {:.2} max {}",
                m.decisions,
                m.single_alternative,
                m.static_fast_path_hits,
                m.sll_resolved,
                m.failovers,
                m.lookahead_depth.mean(),
                m.lookahead_depth.max()
            );
            eprintln!(
                "steps: {} machine + {} prediction = {} metered \
                 ({} pushes, {} consumes, {} returns, max stack {})",
                m.machine_steps,
                m.prediction_steps,
                m.meter_steps,
                m.pushes,
                m.consumes,
                m.returns,
                m.max_stack_height
            );
            eprintln!(
                "cache: {} lookups, {} hits, {} misses ({:.1}% hit rate), {} evictions",
                m.cache_lookups,
                m.cache_hits,
                m.cache_misses,
                m.cache_hit_rate() * 100.0,
                m.cache_evictions
            );
        }
        _ => {}
    }
    let stats_json = match (stats, metrics.as_ref()) {
        (StatsMode::Json, Some(m)) => Some(m.to_json()),
        _ => None,
    };
    let recovery_json =
        (recover == RecoverMode::Json).then(|| render::recovery_report_json(g, &recovered, n));
    // One JSON document per invocation, whatever combination was asked
    // for: `{"stats":...,"recovery":...}` when both, the bare object
    // when only one (preserving each flag's standalone output shape).
    match (stats_json, recovery_json) {
        (Some(s), Some(r)) => println!(
            "{}",
            json::object(|w| {
                w.key("stats").raw(&s).key("recovery").raw(&r);
            })
        ),
        (Some(s), None) => println!("{s}"),
        (None, Some(r)) => println!("{r}"),
        (None, None) => {}
    }
    if time {
        let secs = elapsed.as_secs_f64();
        eprintln!(
            "parse time: {:.3} ms ({:.0} tokens/sec)",
            secs * 1e3,
            n as f64 / secs.max(1e-12)
        );
    }
    Ok(code)
}

/// The multi-file arm of `costar parse`: every FILE parses as one batch
/// over a shared grammar context ([`BatchParser`]), in parallel across
/// `--jobs` workers. Per-file verdicts print in input order regardless
/// of completion order; per-input outcomes are byte-identical to a
/// sequential run at any worker count. JSON reporting (either of
/// `--stats=json` / `--recover=json`) emits exactly one top-level
/// document. The exit code folds to the most severe per-file code
/// (severity `0 < 4 < 1 < 3`).
fn cmd_parse_batch(
    grammar: Grammar,
    analysis: GrammarAnalysis,
    names: &[String],
    words: &[Vec<Token>],
    budget: Budget,
    opts: &ParseOpts,
) -> Result<ExitCode, String> {
    let batch = BatchParser::with_shared(Arc::new(grammar), Arc::new(analysis))
        .with_budget(budget)
        .with_jobs(opts.jobs.unwrap_or(0))
        .with_warm_cache(opts.warm_cache);
    if !batch.analysis().left_recursion.is_grammar_safe() {
        eprintln!(
            "warning: grammar is left-recursive; the correctness theorems do not apply \
             (try `costar check --eliminate-lr`)"
        );
    }
    let recovering = opts.recover != RecoverMode::Off;
    let start = Instant::now();
    let result = if recovering {
        batch.parse_many_recovering(words)
    } else {
        batch.parse_many(words)
    };
    let elapsed = start.elapsed();

    // With JSON on stdout, human verdict lines move to stderr (same
    // contract as single-file `--stats=json`).
    let json_mode = opts.stats == StatsMode::Json || opts.recover == RecoverMode::Json;
    let verdict = |line: String| {
        if json_mode {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };

    let g = batch.grammar();
    for (i, item) in result.items.iter().enumerate() {
        let name = &names[i];
        if let BatchItemResult::Recovered(r) = &item.result {
            for d in &r.diagnostics {
                eprintln!("{name}: error: {}", render::describe_diagnostic(g, d));
            }
        }
        let line = match item.outcome() {
            ParseOutcome::Unique(t) => format!(
                "{name}: unique parse ({} tokens, {} tree nodes)",
                words[i].len(),
                t.size()
            ),
            ParseOutcome::Ambig(t) => format!(
                "{name}: AMBIGUOUS input ({} tokens); one of its parse trees has {} nodes",
                words[i].len(),
                t.size()
            ),
            ParseOutcome::Reject(reason) => match &item.result {
                BatchItemResult::Recovered(r) => {
                    let errors = r.diagnostics.len();
                    let skipped: usize = r.diagnostics.iter().map(|d| d.skipped).sum();
                    format!(
                        "{name}: parsed with {errors} syntax error{} ({} tokens, {skipped} skipped)",
                        if errors == 1 { "" } else { "s" },
                        words[i].len()
                    )
                }
                BatchItemResult::Plain(_) => {
                    format!("{name}: reject: {}", render::describe_reject(g, reason))
                }
            },
            ParseOutcome::Error(e) => {
                format!("{name}: error: {}", render::describe_error(g, e))
            }
            ParseOutcome::Aborted(r) => format!(
                "{name}: aborted: {r} — input neither accepted nor rejected \
                 (raise --max-steps/--deadline-ms to resolve it)"
            ),
        };
        verdict(line);
        if opts.tree {
            if let Some(t) = item.tree() {
                print!("{}", t.render(g.symbols()));
            }
        }
    }

    if json_mode {
        let doc = json::object(|w| {
            w.key("files").array(|w| {
                for (i, item) in result.items.iter().enumerate() {
                    let outcome = match (&item.result, item.outcome()) {
                        (_, ParseOutcome::Unique(_)) => "unique",
                        (_, ParseOutcome::Ambig(_)) => "ambiguous",
                        (BatchItemResult::Recovered(_), ParseOutcome::Reject(_)) => "recovered",
                        (BatchItemResult::Plain(_), ParseOutcome::Reject(_)) => "reject",
                        (_, ParseOutcome::Error(_)) => "error",
                        (_, ParseOutcome::Aborted(_)) => "aborted",
                    };
                    w.object(|w| {
                        w.field("file", &names[i])
                            .field("tokens", words[i].len())
                            .field("outcome", outcome)
                            .field("exit", item.exit_code());
                        if opts.stats == StatsMode::Json {
                            w.key("stats").raw(&item.metrics.to_json());
                        }
                        if let (RecoverMode::Json, BatchItemResult::Recovered(r)) =
                            (opts.recover, &item.result)
                        {
                            let report = render::recovery_report_json(g, r, words[i].len());
                            w.key("recovery").raw(&report);
                        }
                    });
                }
            });
            w.field("jobs", result.jobs)
                .field("exit", result.exit_code());
            if opts.stats == StatsMode::Json {
                w.key("stats").raw(&result.metrics.to_json());
            }
        });
        println!("{doc}");
    }

    if opts.stats == StatsMode::Human {
        let m = &result.metrics;
        eprintln!(
            "batch: {} files on {} worker{}, {} tokens total",
            result.items.len(),
            result.jobs,
            if result.jobs == 1 { "" } else { "s" },
            m.tokens
        );
        eprintln!(
            "steps: {} machine + {} prediction = {} metered; \
             cache: {} lookups, {} hits, {} misses ({:.1}% hit rate), {} evictions",
            m.machine_steps,
            m.prediction_steps,
            m.meter_steps,
            m.cache_lookups,
            m.cache_hits,
            m.cache_misses,
            m.cache_hit_rate() * 100.0,
            m.cache_evictions
        );
        if recovering {
            eprintln!(
                "recovery: {} recoveries, {} tokens skipped",
                m.recoveries, m.tokens_skipped
            );
        }
    }
    if opts.time {
        let secs = elapsed.as_secs_f64();
        eprintln!(
            "batch time: {:.3} ms ({:.0} tokens/sec across {} worker{})",
            secs * 1e3,
            result.metrics.tokens as f64 / secs.max(1e-12),
            result.jobs,
            if result.jobs == 1 { "" } else { "s" }
        );
    }
    Ok(ExitCode::from(result.exit_code()))
}

/// One applied edit's report row, shared by the human and JSON renderers
/// of `costar edit`.
struct EditRow {
    start: usize,
    end: usize,
    replacement_len: usize,
    tokens_relexed: usize,
    tokens_reused: usize,
    unchanged: bool,
    reused_parse: bool,
    relex_micros: u64,
    edit_micros: u64,
    outcome: &'static str,
    oracle_ok: Option<bool>,
}

impl EditRow {
    fn human(&self, i: usize, tokens: usize) -> String {
        let total = self.tokens_relexed + self.tokens_reused;
        let frac = if total == 0 {
            100.0
        } else {
            self.tokens_reused as f64 * 100.0 / total as f64
        };
        format!(
            "edit {i}: {}..{} +{}B | relexed {}, reused {} ({frac:.1}%) | \
             {} µs lex, {} µs total | {} ({tokens} tokens){}",
            self.start,
            self.end,
            self.replacement_len,
            self.tokens_relexed,
            self.tokens_reused,
            self.relex_micros,
            self.edit_micros,
            self.outcome,
            if self.reused_parse {
                " [parse skipped: tokens unchanged]"
            } else {
                ""
            },
        )
    }

    fn write_json(&self, w: &mut JsonWriter, i: usize) {
        w.object(|w| {
            w.field("index", i)
                .field("start", self.start)
                .field("end", self.end)
                .field("replacement_len", self.replacement_len)
                .field("tokens_relexed", self.tokens_relexed)
                .field("tokens_reused", self.tokens_reused)
                .field("unchanged", self.unchanged)
                .field("reused_parse", self.reused_parse)
                .field("relex_micros", self.relex_micros)
                .field("edit_micros", self.edit_micros)
                .field("outcome", self.outcome);
            if let Some(ok) = self.oracle_ok {
                w.field("oracle_ok", ok);
            }
        });
    }
}

fn outcome_word(o: &ParseOutcome) -> &'static str {
    match o {
        ParseOutcome::Unique(_) => "unique",
        ParseOutcome::Ambig(_) => "ambiguous",
        ParseOutcome::Reject(_) => "reject",
        ParseOutcome::Error(_) => "error",
        ParseOutcome::Aborted(_) => "aborted",
    }
}

/// `costar edit`: replay a JSON edit script against one source file,
/// re-lexing incrementally and re-parsing only when the token vector
/// changed, with per-edit latency reporting.
///
/// Exit codes: 0 = final source accepted, 1 = final source rejected /
/// an edit produced unlexable text / `--oracle` found a splice
/// divergence, 2 = the file, script, or an edit range is malformed,
/// 3 = the final parse aborted on budget. Errors mid-script stop the
/// replay; the JSON document still carries the rows applied so far plus
/// an `"error"` field.
fn cmd_edit(
    lang: &str,
    file: &str,
    script: &str,
    format: LintFormat,
    oracle: bool,
) -> Result<ExitCode, String> {
    let json_mode = format == LintFormat::Json;
    let language = match args::find_language(lang) {
        Ok(l) => l,
        Err(msg) => {
            eprintln!("error: {msg}");
            return Ok(ExitCode::from(2));
        }
    };
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {file}: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    let script_text = match std::fs::read_to_string(script) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {script}: {e}");
            return Ok(ExitCode::from(2));
        }
    };
    let edits = match edit_script::parse(&script_text) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("error: {script}: {msg}");
            return Ok(ExitCode::from(2));
        }
    };
    let mut parser = Parser::with_analysis(language.grammar().clone(), language.analysis());
    let incremental = language.incremental_lexing();

    // With `--format=json` stdout carries the document; human lines move
    // to stderr (the same contract as `parse --stats=json`).
    let verdict = |line: String| {
        if json_mode {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };

    let mut rows: Vec<EditRow> = Vec::new();
    let mut error: Option<String> = None;
    let mut exit: u8;
    let final_line: String;

    if incremental {
        let mut session = match parser.parse_session(language.lexer(), &source) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {file}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        exit = exit_code(session.outcome(), &[]);
        verdict(format!(
            "initial: {} ({} tokens, incremental lexing)",
            outcome_word(session.outcome()),
            session.tokens().len()
        ));
        for (i, e) in edits.iter().enumerate() {
            let edit = Edit::new(e.start..e.end, e.replacement.clone());
            match parser.reparse_after_edit_with_metrics(&mut session, &edit) {
                Ok((reparse, metrics)) => {
                    let oracle_ok = if oracle {
                        Some(
                            language.tokenize(session.source()).ok().as_deref()
                                == Some(session.tokens()),
                        )
                    } else {
                        None
                    };
                    let row = EditRow {
                        start: e.start,
                        end: e.end,
                        replacement_len: e.replacement.len(),
                        tokens_relexed: reparse.splice.tokens_relexed,
                        tokens_reused: reparse.splice.tokens_reused,
                        unchanged: reparse.splice.unchanged,
                        reused_parse: reparse.reused,
                        relex_micros: reparse.splice.relex_micros,
                        edit_micros: metrics.total_nanos / 1_000,
                        outcome: outcome_word(session.outcome()),
                        oracle_ok,
                    };
                    exit = exit_code(session.outcome(), &[]);
                    if row.oracle_ok == Some(false) {
                        eprintln!(
                            "error: edit {i}: oracle mismatch — spliced tokens \
                             differ from a from-scratch lex"
                        );
                        exit = 1;
                    }
                    if !json_mode {
                        println!("{}", row.human(i, session.tokens().len()));
                    }
                    rows.push(row);
                }
                Err(err) => {
                    let code = match &err {
                        EditError::Lex(_) => 1,
                        _ => 2,
                    };
                    eprintln!("error: edit {i}: {err}");
                    error = Some(format!("edit {i}: {err}"));
                    exit = code;
                    break;
                }
            }
        }
        final_line = format!(
            "final: {} ({} tokens)",
            outcome_word(session.outcome()),
            session.tokens().len()
        );
    } else {
        // Full re-tokenize fallback: the language's token word is not a
        // pure DFA pass over the text (Python's INDENT/DEDENT synthesis
        // is line-global), so every edit re-lexes and re-parses from
        // scratch. Rows report zero reuse.
        let mut src = source;
        let mut tokens = match language.tokenize(&src) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {file}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        let mut outcome = parser.parse(&tokens);
        exit = exit_code(&outcome, &[]);
        verdict(format!(
            "initial: {} ({} tokens, full re-tokenize per edit: {} does not lex \
             incrementally)",
            outcome_word(&outcome),
            tokens.len(),
            language.name
        ));
        for (i, e) in edits.iter().enumerate() {
            let edit = Edit::new(e.start..e.end, e.replacement.clone());
            let edit_start = Instant::now();
            src = match edit.apply_to(&src) {
                Ok(s) => s,
                Err(err) => {
                    eprintln!("error: edit {i}: {err}");
                    error = Some(format!("edit {i}: {err}"));
                    exit = 2;
                    break;
                }
            };
            let lex_start = Instant::now();
            tokens = match language.tokenize(&src) {
                Ok(t) => t,
                Err(err) => {
                    eprintln!("error: edit {i}: {err}");
                    error = Some(format!("edit {i}: {err}"));
                    exit = 1;
                    break;
                }
            };
            let relex_micros = lex_start.elapsed().as_micros() as u64;
            outcome = parser.parse(&tokens);
            let row = EditRow {
                start: e.start,
                end: e.end,
                replacement_len: e.replacement.len(),
                tokens_relexed: tokens.len(),
                tokens_reused: 0,
                unchanged: false,
                reused_parse: false,
                relex_micros,
                edit_micros: edit_start.elapsed().as_micros() as u64,
                outcome: outcome_word(&outcome),
                // The tokens ARE a from-scratch lex here; nothing to check.
                oracle_ok: oracle.then_some(true),
            };
            exit = exit_code(&outcome, &[]);
            if !json_mode {
                println!("{}", row.human(i, tokens.len()));
            }
            rows.push(row);
        }
        final_line = format!(
            "final: {} ({} tokens)",
            outcome_word(&outcome),
            tokens.len()
        );
    }

    verdict(final_line);
    let relexed: usize = rows.iter().map(|r| r.tokens_relexed).sum();
    let reused: usize = rows.iter().map(|r| r.tokens_reused).sum();
    let reuse_pct = if relexed + reused == 0 {
        0.0
    } else {
        reused as f64 * 100.0 / (relexed + reused) as f64
    };
    let skipped = rows.iter().filter(|r| r.reused_parse).count();
    let relex_total: u64 = rows.iter().map(|r| r.relex_micros).sum();
    eprintln!(
        "{} edit{} applied: {relexed} tokens re-lexed, {reused} reused \
         ({reuse_pct:.1}% reuse), {skipped} parse{} skipped, {relex_total} µs re-lexing",
        rows.len(),
        if rows.len() == 1 { "" } else { "s" },
        if skipped == 1 { "" } else { "s" },
    );

    if json_mode {
        let doc = json::object(|w| {
            w.field("file", file)
                .field("lang", language.name)
                .field("incremental", incremental);
            w.key("edits").array(|w| {
                for (i, r) in rows.iter().enumerate() {
                    r.write_json(w, i);
                }
            });
            if let Some(e) = &error {
                w.field("error", e);
            }
            w.field("exit", exit);
        });
        println!("{doc}");
    }
    Ok(ExitCode::from(exit))
}

/// `costar lint`: structured grammar diagnostics with witnesses.
///
/// Exit codes are part of the contract (scriptable in CI): 0 = no
/// findings, 1 = at least one finding of any severity, 2 = the grammar
/// could not be loaded or compiled. Never returns `Err` — load failures
/// map to exit 2 so callers can distinguish "bad grammar file" from
/// "grammar has defects".
fn cmd_lint(source: GrammarSource, format: LintFormat) -> ExitCode {
    let (grammar, analysis) = match load_analyzed(source, false) {
        Ok(loaded) => loaded,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let diags = costar_grammar::lint::lint_grammar(&grammar, &analysis);
    match format {
        LintFormat::Human => {
            for d in &diags {
                println!("{}", d.render_human(&grammar));
            }
            match costar_grammar::lint::worst_severity(&diags) {
                None => println!("no findings"),
                Some(worst) => eprintln!(
                    "{} finding{} (worst severity: {})",
                    diags.len(),
                    if diags.len() == 1 { "" } else { "s" },
                    worst.as_str()
                ),
            }
        }
        LintFormat::Json => {
            let worst = costar_grammar::lint::worst_severity(&diags);
            let doc = json::object(|w| {
                w.field("findings", diags.len())
                    .field("worst", worst.map(|w| w.as_str()));
                w.key("diagnostics").array(|w| {
                    for d in &diags {
                        w.raw(&d.to_json(&grammar));
                    }
                });
            });
            println!("{doc}");
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `costar analyze`: the static decision-point classification table.
///
/// Classifies every multi-alternative nonterminal as `ll1` (dispatchable
/// from a precompiled one-token lookahead map), `sll-safe` (SLL
/// prediction provably never conflicts), or `needs-full-allstar`, from
/// the statically-computed SLL closure graph. Shares `lint`'s exit-code
/// contract: 0 = clean, 1 = findings (here: a proven-ambiguous decision
/// pair, the L007 condition), 2 = the grammar could not be loaded.
fn cmd_analyze(source: GrammarSource, format: LintFormat) -> ExitCode {
    let (grammar, analysis) = match load_analyzed(source, false) {
        Ok(loaded) => loaded,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let table = &analysis.decisions;
    let stats = table.stats();
    match format {
        LintFormat::Human => {
            for d in table.iter() {
                let name = grammar.symbols().nonterminal_name(d.nonterminal);
                println!(
                    "{name}: {} ({} alternatives, {} graph states)",
                    d.class.as_str(),
                    d.alternatives,
                    d.graph_states
                );
                if let Some(map) = &d.lookahead {
                    println!("  lookahead map: {} entries", map.entries());
                }
                for c in &d.conflicts {
                    let a = grammar.render_production(c.a);
                    let b = grammar.render_production(c.b);
                    println!("  conflict: `{a}` vs `{b}`");
                    if let Some(w) = &c.ambiguous_word {
                        let word: Vec<&str> = w
                            .iter()
                            .map(|t| grammar.symbols().terminal_name(*t))
                            .collect();
                        if word.is_empty() {
                            println!("    ambiguous: both derive the empty word");
                        } else {
                            println!("    ambiguous: both derive `{}`", word.join(" "));
                        }
                    } else if let Some(p) = &c.distinguishing_prefix {
                        let pfx: Vec<&str> = p
                            .iter()
                            .map(|t| grammar.symbols().terminal_name(*t))
                            .collect();
                        println!("    distinguished after `{}`", pfx.join(" "));
                    }
                }
            }
            eprintln!(
                "{} decision point{}: {} ll1, {} sll-safe, {} needs-full-allstar \
                 ({} ambiguous, {} lookahead entries)",
                stats.decision_points,
                if stats.decision_points == 1 { "" } else { "s" },
                stats.ll1,
                stats.sll_safe,
                stats.needs_full,
                stats.ambiguous,
                stats.lookahead_entries
            );
        }
        LintFormat::Json => println!("{}", table.to_json(&grammar)),
    }
    if stats.ambiguous == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `costar audit`: exact lookahead-bound certification plus
/// dead/shadowed-alternative findings.
///
/// Human output prints one line per decision point with its certified
/// bound k (or `unbounded` — ALL(*)'s regular-lookahead case), the
/// collide/resolve witnesses per alternative pair, and then any
/// L009/L010/L011 diagnostics. `--format=json` prints the
/// `costar-cert-v1` certificate exactly as it is embedded in the on-disk
/// grammar-analysis cache, so the two forms are byte-identical. Exit
/// codes follow lint's contract: 0 = no findings, 1 = findings
/// (L009/L010/L011), 2 = the grammar could not be loaded.
fn cmd_audit(source: GrammarSource, format: LintFormat, max_lookahead: Option<usize>) -> ExitCode {
    let (grammar, analysis) = match load_analyzed(source, false) {
        Ok(loaded) => loaded,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let table = &analysis.audit;
    let diags = costar_grammar::lint::audit_findings(&grammar, &analysis, max_lookahead);
    match format {
        LintFormat::Human => {
            let word = |w: &[costar_grammar::Terminal]| -> String {
                if w.is_empty() {
                    "ε".to_owned()
                } else {
                    w.iter()
                        .map(|t| grammar.symbols().terminal_name(*t))
                        .collect::<Vec<_>>()
                        .join(" ")
                }
            };
            for info in table.iter() {
                let name = grammar.symbols().nonterminal_name(info.nonterminal);
                match info.k {
                    Some(k) => println!(
                        "{name}: k = {k} ({} pairs, {} graph states)",
                        info.pairs.len(),
                        info.graph_states
                    ),
                    None => println!(
                        "{name}: k = unbounded ({} pairs, {} graph states)",
                        info.pairs.len(),
                        info.graph_states
                    ),
                }
                for p in &info.pairs {
                    let a = grammar.render_production(p.a);
                    let b = grammar.render_production(p.b);
                    match (p.k, &p.collide) {
                        (Some(k), Some(c)) => {
                            println!("  `{a}` vs `{b}`: k = {k}, collide after `{}`", word(c));
                            if let Some(r) = &p.resolve {
                                println!("    resolved by `{}`", word(r));
                            }
                        }
                        (Some(k), None) => println!("  `{a}` vs `{b}`: k = {k}"),
                        (None, _) => println!("  `{a}` vs `{b}`: unbounded"),
                    }
                }
            }
            for d in &diags {
                println!("{}", d.render_human(&grammar));
            }
            let stats = table.stats();
            eprintln!(
                "{} decision point{}: {} bounded (max k = {}), {} unbounded; \
                 {} dead, {} shadowed alternative{} ({} graph states)",
                stats.decision_points,
                if stats.decision_points == 1 { "" } else { "s" },
                stats.bounded,
                stats.max_k,
                stats.unbounded,
                stats.dead_alternatives,
                stats.shadowed_alternatives,
                if stats.shadowed_alternatives == 1 {
                    ""
                } else {
                    "s"
                },
                stats.graph_states
            );
        }
        LintFormat::Json => println!(
            "{}",
            costar_grammar::analysis::to_cert_json(&grammar, table)
        ),
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `costar cost`: the static cost certificate derived from the
/// termination measure.
///
/// Human output reports the certified constants and how they were built
/// (ε-subtree bound, pushes per consume epoch, worst certified lookahead
/// k_max), then any L012/L013 diagnostics. `--format=json` prints the
/// machine-checkable `costar-cost-v1` certificate — byte-identical to
/// the one embedded in the on-disk grammar-analysis cache, which this
/// command loads through the same replay-validating path the parser
/// uses, so a corrupted or deflated cached certificate can never be
/// reported here. Exit codes follow lint's contract: 0 = no findings,
/// 1 = findings (L012/L013), 2 = the grammar could not be loaded.
fn cmd_cost(
    source: GrammarSource,
    format: LintFormat,
    max_steps_per_token: Option<u64>,
) -> ExitCode {
    let (grammar, analysis) = match load_analyzed(source, true) {
        Ok(loaded) => loaded,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let cost = &analysis.cost;
    let diags = costar_grammar::lint::cost_findings(&grammar, &analysis, max_steps_per_token);
    match format {
        LintFormat::Human => {
            println!(
                "grammar: {} nonterminals, at most {} nonterminals per alternative",
                cost.nonterminals, cost.max_rhs_nts
            );
            if cost.nullable_hazard {
                println!(
                    "epsilon subtrees: bounded by {} nodes (nullable-closure cycle: \
                     conservative power bound)",
                    cost.epsilon_max
                );
            } else {
                println!("epsilon subtrees: bounded by {} nodes", cost.epsilon_max);
            }
            println!(
                "pushes per consume epoch: at most {}",
                cost.pushes_per_epoch
            );
            match cost.steps_per_token() {
                Some(a) => {
                    println!(
                        "certified bound: {a}·n + {} metered steps for any accepting or \
                         rejecting parse of n tokens (worst certified lookahead k = {})",
                        cost.b, cost.k_max
                    );
                    for n in [0u64, 100, 10_000] {
                        println!("  n = {n}: at most {} steps", cost.bound_for(n));
                    }
                }
                None => {
                    let names: Vec<&str> = cost
                        .unbounded
                        .iter()
                        .map(|x| grammar.symbols().nonterminal_name(*x))
                        .collect();
                    println!(
                        "no linear bound: {} decision point{} with unbounded lookahead ({}); \
                         falling back to the quadratic envelope",
                        names.len(),
                        if names.len() == 1 { "" } else { "s" },
                        names.join(", ")
                    );
                    for n in [0u64, 100] {
                        println!("  n = {n}: at most {} steps", cost.bound_for(n));
                    }
                }
            }
            for d in &diags {
                println!("{}", d.render_human(&grammar));
            }
            match costar_grammar::lint::worst_severity(&diags) {
                None => eprintln!("no findings"),
                Some(worst) => eprintln!(
                    "{} finding{} (worst severity: {})",
                    diags.len(),
                    if diags.len() == 1 { "" } else { "s" },
                    worst.as_str()
                ),
            }
        }
        LintFormat::Json => println!("{}", costar_grammar::analysis::to_cost_json(&grammar, cost)),
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Loads a grammar (no input word) and its analysis from either source.
/// A built-in language loads the analysis it ships with. A `--grammar`
/// file's analysis is computed, or with `disk_cache` taken from (and
/// stored in) the on-disk cache.
fn load_analyzed(
    source: GrammarSource,
    disk_cache: bool,
) -> Result<(Grammar, GrammarAnalysis), String> {
    match source {
        GrammarSource::Lang(name) => {
            let language = args::find_language(&name)?;
            Ok((language.grammar().clone(), language.analysis()))
        }
        GrammarSource::Ebnf(path) => {
            let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let grammar = costar_ebnf::compile(&src)?.0;
            let analysis = cached_analysis(&grammar, &path, !disk_cache);
            Ok((grammar, analysis))
        }
    }
}

fn cmd_check(source: GrammarSource, eliminate_lr: bool) -> Result<ExitCode, String> {
    let (grammar, analysis) = load_analyzed(source, false)?;
    println!(
        "grammar: |T| = {}, |N| = {}, |P| = {}, maxRhsLen = {}",
        grammar.num_terminals(),
        grammar.num_nonterminals(),
        grammar.num_productions(),
        grammar.max_rhs_len()
    );

    let lr = &analysis.left_recursion;
    if lr.is_grammar_safe() {
        println!("left recursion: none — CoStar's correctness theorems apply");
    } else {
        let culprits: Vec<String> = lr
            .left_recursive_set()
            .iter()
            .map(|x| grammar.symbols().nonterminal_name(x).to_owned())
            .collect();
        println!("left recursion: YES — {}", culprits.join(", "));
    }

    match Ll1Parser::generate(&grammar) {
        Ok(_) => println!("LL(1): yes (a table-driven LL(1) parser also covers this grammar)"),
        Err(conflict) => {
            println!("LL(1): no ({conflict}) — ALL(*) prediction is doing real work here")
        }
    }

    if eliminate_lr {
        if lr.is_grammar_safe() {
            println!("--eliminate-lr: grammar already safe; nothing to rewrite");
        } else {
            let rewritten = eliminate_left_recursion(&grammar).map_err(|e| e.to_string())?;
            println!(
                "\nrewritten grammar ({} productions):",
                rewritten.num_productions()
            );
            print!("{}", render::render_grammar(&rewritten));
        }
    }
    Ok(if lr.is_grammar_safe() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
