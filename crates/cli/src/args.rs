//! Hand-rolled argument parsing (the workspace keeps its dependency set
//! to the offline essentials, so no clap).

use costar_langs::{Constructor, Generator, Language, LANGUAGES};

/// Usage text shown on argument errors.
pub const USAGE: &str = "\
usage:
  costar parse    (--lang json|xml|dot|python FILE...) | (--grammar G.ebnf --tokens \"a b c\")
                  [--tree] [--stats[=json]] [--time] [--trace-buffer N]
                  [--max-steps N|auto] [--deadline-ms N] [--cache-cap N]
                  [--recover[=json]] [--max-recoveries N] [--no-grammar-cache]
                  [--jobs N] [--warm-cache]
  costar check    (--lang L) | (--grammar G.ebnf)  [--eliminate-lr]
  costar lint     (--lang L) | (--grammar G.ebnf)  [--format=human|json]
  costar analyze  (--lang L) | (--grammar G.ebnf)  [--format=human|json]
  costar audit    (--lang L) | (--grammar G.ebnf)  [--format=human|json]
                  [--max-lookahead K]
  costar cost     (--lang L) | (--grammar G.ebnf)  [--format=human|json]
                  [--max-steps-per-token N]
  costar edit     --lang L FILE --script EDITS.json [--format=human|json]
                  [--oracle]
  costar generate --lang L [--size N] [--seed S]
  costar tokens   --lang L FILE

  lint reports structured diagnostics (L001 left recursion, L002 empty
  language, L003 unproductive, L004 unreachable, L005 duplicate
  production, L006 LL(1) conflict, L007 statically ambiguous pair, L008
  SLL-safe nonterminal, L009 dead alternative, L010 shadowed
  alternative), each with a witness. Exit code 0 = clean, 1 = findings,
  2 = the grammar could not be loaded.
  analyze classifies every prediction decision point as ll1 / sll-safe /
  needs-full-allstar from the static SLL closure graph and reports the
  precompiled decision table; same exit-code contract as lint, where a
  \"finding\" is a proven-ambiguous decision pair (L007).
  audit certifies the exact minimum lookahead bound k of every decision
  point (with collide/resolve witnesses), detects dead (L009) and
  shadowed (L010) alternatives, and with --max-lookahead K notes
  decisions whose bound exceeds K (L011); --format=json prints the
  machine-checkable costar-cert-v1 certificate. Exit 0 = no findings,
  1 = findings (L009/L010/L011), 2 = the grammar could not be loaded.
  cost derives the grammar's certified fuel bound from the termination
  measure: constants (a, b) such that any accepting or rejecting parse
  of n tokens consumes at most a*n + b metered steps. It warns (L012)
  when an unbounded-lookahead decision is reachable from a token-free
  cycle (superlinear-prediction risk), and with --max-steps-per-token N
  notes (L013) when the certified per-token cost exceeds N;
  --format=json prints the machine-checkable costar-cost-v1
  certificate, byte-identical to the one embedded in the grammar cache
  and replayed at load time. Exit 0 = no findings, 1 = findings
  (L012/L013), 2 = the grammar could not be loaded.
  --max-steps auto derives each input's step fuel from the cost
  certificate (a*n + b for its own n), so a budget abort under auto
  fuel indicates a parser bug, never a large input; in a batch every
  file gets fuel from its own length.
  --stats prints a human-readable metrics summary to stderr;
  --stats=json prints the full ParseMetrics object as JSON on stdout.
  --trace-buffer keeps the last N parse events and dumps them to stderr
  when the parse does not accept.
  --recover keeps parsing past syntax errors (panic-mode resynchronizing
  on the grammar's sync sets), printing one diagnostic per error to
  stderr (or, with --recover=json, a JSON report to stdout), and exits 4
  when the input parsed with errors. --max-recoveries caps how many
  errors are recovered before aborting (exit 3).
  Parse exit codes: 0 accepted, 1 rejected or internal error,
  2 usage/load error, 3 budget aborted, 4 parsed with recovered errors.
  Several FILEs parse as one batch over a shared grammar context:
  --jobs N sets the worker count (default: available parallelism; each
  input's outcome is byte-identical at any worker count), --warm-cache
  pre-warms one shared prediction-cache snapshot, per-file verdicts keep
  input order, and the exit code folds to the most severe per-file code
  (severity 0 < 4 < 1 < 3).
  Bundled languages (--lang) load the grammar analysis shipped inside
  the binary. The disk cache serves --grammar files only: their
  analyses are cached keyed by grammar content (COSTAR_CACHE_DIR,
  default <grammar dir>/.costar-cache). --no-grammar-cache uses no
  stored analysis: it recomputes the analysis for either source.
  edit replays a JSON edit script against FILE in one live session:
  each edit re-lexes only the damaged region, splices the fresh tokens
  into the previous token vector, and skips the parse entirely when the
  spliced vector is byte-identical to the previous one. Per-edit re-lex
  and re-parse latency is printed (or, with --format=json, one JSON
  document with every per-edit record). The script is
  {\"edits\":[{\"start\":B,\"end\":B,\"replacement\":S},...]} with
  byte offsets into the *current* (already-edited) source. --oracle
  additionally re-tokenizes from scratch after every edit and fails on
  any divergence from the spliced tokens. Python falls back to full
  re-tokenization per edit (INDENT/DEDENT synthesis is line-global).
  Exit codes: 0 final parse accepted, 1 rejected/error/oracle mismatch,
  2 usage or script error, 3 budget aborted.";

/// How `--stats` should report parse metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsMode {
    /// No metrics collection (the default, zero-overhead path).
    Off,
    /// Human-readable summary on stderr.
    Human,
    /// Full `ParseMetrics` JSON object on stdout.
    Json,
}

/// How `--recover` should report diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoverMode {
    /// No recovery: stop at the first syntax error (the default).
    #[default]
    Off,
    /// Recover, printing human-readable diagnostics to stderr.
    Human,
    /// Recover, printing a JSON diagnostics report to stdout.
    Json,
}

/// Output format for `costar lint` and `costar analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintFormat {
    /// `error[L001]: ...` lines with indented witnesses (the default).
    #[default]
    Human,
    /// One JSON object on stdout with the full diagnostic list.
    Json,
}

/// Step fuel requested via `--max-steps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxSteps {
    /// A fixed fuel count (always positive — `0` is a usage error).
    Fixed(u64),
    /// Derive the fuel from the grammar's certified cost bound, per
    /// input: `a·n + b` for an `n`-token input.
    Auto,
}

/// Where the grammar comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarSource {
    /// One of the built-in benchmark languages.
    Lang(String),
    /// An EBNF grammar file.
    Ebnf(String),
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Parse input and report the outcome.
    Parse {
        /// Grammar source.
        source: GrammarSource,
        /// Input files (built-in language; several parse as one batch)
        /// or a single token-name string (`--tokens`).
        inputs: Vec<String>,
        /// Print the parse tree.
        tree: bool,
        /// Metrics reporting mode.
        stats: StatsMode,
        /// Print parse time.
        time: bool,
        /// Keep the last N parse events for a post-mortem dump.
        trace_buffer: Option<usize>,
        /// Budget: abort after this many machine steps + lookahead
        /// tokens, or derive the cap from the cost certificate (`auto`).
        max_steps: Option<MaxSteps>,
        /// Budget: abort once this many milliseconds have elapsed.
        deadline_ms: Option<u64>,
        /// Budget: cap the SLL cache at this many DFA states (LRU evict).
        cache_cap: Option<usize>,
        /// Syntax-error recovery mode.
        recover: RecoverMode,
        /// Budget: abort after recovering this many syntax errors.
        max_recoveries: Option<u64>,
        /// Bypass the on-disk grammar-analysis cache.
        no_grammar_cache: bool,
        /// Batch worker count (`None` = available parallelism).
        jobs: Option<usize>,
        /// Warm one shared prediction-cache snapshot before the batch.
        warm_cache: bool,
    },
    /// Run the static analyses.
    Check {
        /// Grammar source.
        source: GrammarSource,
        /// Also print a left-recursion-eliminated rewrite.
        eliminate_lr: bool,
    },
    /// Run the grammar linter and report structured diagnostics.
    Lint {
        /// Grammar source.
        source: GrammarSource,
        /// Output format.
        format: LintFormat,
    },
    /// Report the static decision-point classification table.
    Analyze {
        /// Grammar source.
        source: GrammarSource,
        /// Output format.
        format: LintFormat,
    },
    /// Certify exact lookahead bounds and report dead/shadowed
    /// alternatives.
    Audit {
        /// Grammar source.
        source: GrammarSource,
        /// Output format (`json` prints the `costar-cert-v1` certificate).
        format: LintFormat,
        /// Note decisions whose certified bound exceeds this (L011).
        max_lookahead: Option<usize>,
    },
    /// Derive and report the certified per-grammar fuel bound.
    Cost {
        /// Grammar source.
        source: GrammarSource,
        /// Output format (`json` prints the `costar-cost-v1` certificate).
        format: LintFormat,
        /// Note a certified per-token cost exceeding this (L013).
        max_steps_per_token: Option<u64>,
    },
    /// Replay a JSON edit script through an incremental parse session.
    Edit {
        /// Language name.
        lang: String,
        /// Initial source file.
        file: String,
        /// Path of the JSON edit script.
        script: String,
        /// Output format (`json` prints one document with per-edit rows).
        format: LintFormat,
        /// After every edit, re-tokenize from scratch and fail on any
        /// divergence from the spliced token vector.
        oracle: bool,
    },
    /// Emit a synthetic corpus file.
    Generate {
        /// Language name.
        lang: String,
        /// Size knob (roughly tokens).
        size: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Dump a file's token stream.
    Tokens {
        /// Language name.
        lang: String,
        /// Input file.
        file: String,
    },
}

/// The full parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand.
    pub command: Command,
}

impl Args {
    /// Parses an iterator of arguments (without the binary name).
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = args.peekable();
        let sub = args.next().ok_or("missing subcommand")?;
        match sub.as_str() {
            "parse" => {
                let mut lang = None;
                let mut grammar = None;
                let mut tokens = None;
                let mut files = Vec::new();
                let (mut tree, mut time) = (false, false);
                let mut stats = StatsMode::Off;
                let mut trace_buffer = None;
                let mut max_steps = None;
                let mut deadline_ms = None;
                let mut cache_cap = None;
                let mut recover = RecoverMode::Off;
                let mut max_recoveries = None;
                let mut no_grammar_cache = false;
                let mut jobs = None;
                let mut warm_cache = false;
                while let Some(a) = args.next() {
                    match a.as_str() {
                        "--lang" => lang = Some(required(&mut args, "--lang")?),
                        "--grammar" => grammar = Some(required(&mut args, "--grammar")?),
                        "--tokens" => tokens = Some(required(&mut args, "--tokens")?),
                        "--tree" => tree = true,
                        "--stats" => stats = StatsMode::Human,
                        "--stats=json" => stats = StatsMode::Json,
                        other if other.starts_with("--stats=") => {
                            return Err(format!(
                                "unknown stats mode {:?} (try --stats or --stats=json)",
                                &other["--stats=".len()..]
                            ));
                        }
                        "--time" => time = true,
                        "--trace-buffer" => {
                            trace_buffer = Some(number::<usize>(&mut args, "--trace-buffer")?)
                        }
                        "--max-steps" => {
                            let v = required(&mut args, "--max-steps")?;
                            max_steps = Some(if v == "auto" {
                                MaxSteps::Auto
                            } else {
                                let n: u64 = v
                                    .parse()
                                    .map_err(|_| "--max-steps takes a number or `auto`")?;
                                if n == 0 {
                                    return Err("--max-steps 0 would abort every parse before \
                                                its first step; use a positive fuel count or \
                                                `auto`"
                                        .into());
                                }
                                MaxSteps::Fixed(n)
                            });
                        }
                        "--deadline-ms" => {
                            let ms: u64 = number(&mut args, "--deadline-ms")?;
                            if ms == 0 {
                                return Err("--deadline-ms 0 would expire every parse before \
                                            its first step; use a positive deadline"
                                    .into());
                            }
                            deadline_ms = Some(ms);
                        }
                        "--cache-cap" => {
                            cache_cap = Some(number::<usize>(&mut args, "--cache-cap")?)
                        }
                        "--recover" => recover = RecoverMode::Human,
                        "--recover=json" => recover = RecoverMode::Json,
                        other if other.starts_with("--recover=") => {
                            return Err(format!(
                                "unknown recover mode {:?} (try --recover or --recover=json)",
                                &other["--recover=".len()..]
                            ));
                        }
                        "--max-recoveries" => {
                            max_recoveries = Some(number(&mut args, "--max-recoveries")?)
                        }
                        "--no-grammar-cache" => no_grammar_cache = true,
                        "--jobs" => {
                            let n = number::<usize>(&mut args, "--jobs")?;
                            if n == 0 {
                                return Err("--jobs needs at least one worker".into());
                            }
                            jobs = Some(n);
                        }
                        "--warm-cache" => warm_cache = true,
                        other if !other.starts_with('-') => {
                            files.push(other.to_owned());
                        }
                        other => return Err(format!("unexpected argument {other:?}")),
                    }
                }
                let (source, inputs) = match (lang, grammar) {
                    (Some(l), None) => (GrammarSource::Lang(l), files),
                    (None, Some(g)) => {
                        if !files.is_empty() {
                            return Err(
                                "parse --grammar takes its input via --tokens, not FILE arguments"
                                    .into(),
                            );
                        }
                        (GrammarSource::Ebnf(g), tokens.into_iter().collect())
                    }
                    _ => return Err("parse needs exactly one of --lang or --grammar".into()),
                };
                if trace_buffer.is_some() && inputs.len() > 1 {
                    return Err("--trace-buffer applies to single-file parses only".into());
                }
                Ok(Args {
                    command: Command::Parse {
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
                    },
                })
            }
            "check" => {
                let mut lang = None;
                let mut grammar = None;
                let mut eliminate_lr = false;
                while let Some(a) = args.next() {
                    match a.as_str() {
                        "--lang" => lang = Some(required(&mut args, "--lang")?),
                        "--grammar" => grammar = Some(required(&mut args, "--grammar")?),
                        "--eliminate-lr" => eliminate_lr = true,
                        other => return Err(format!("unexpected argument {other:?}")),
                    }
                }
                let source = match (lang, grammar) {
                    (Some(l), None) => GrammarSource::Lang(l),
                    (None, Some(g)) => GrammarSource::Ebnf(g),
                    _ => return Err("check needs exactly one of --lang or --grammar".into()),
                };
                Ok(Args {
                    command: Command::Check {
                        source,
                        eliminate_lr,
                    },
                })
            }
            "lint" => {
                let (source, format) = source_and_format(&mut args, "lint")?;
                Ok(Args {
                    command: Command::Lint { source, format },
                })
            }
            "analyze" => {
                let (source, format) = source_and_format(&mut args, "analyze")?;
                Ok(Args {
                    command: Command::Analyze { source, format },
                })
            }
            "audit" => {
                let mut lang = None;
                let mut grammar = None;
                let mut format = LintFormat::Human;
                let mut max_lookahead = None;
                while let Some(a) = args.next() {
                    match a.as_str() {
                        "--lang" => lang = Some(required(&mut args, "--lang")?),
                        "--grammar" => grammar = Some(required(&mut args, "--grammar")?),
                        "--format=json" => format = LintFormat::Json,
                        "--format=human" => format = LintFormat::Human,
                        "--format" => {
                            format = match required(&mut args, "--format")?.as_str() {
                                "json" => LintFormat::Json,
                                "human" => LintFormat::Human,
                                other => {
                                    return Err(format!(
                                        "unknown audit format {other:?} (try human or json)"
                                    ))
                                }
                            }
                        }
                        other if other.starts_with("--format=") => {
                            return Err(format!(
                                "unknown audit format {:?} (try human or json)",
                                &other["--format=".len()..]
                            ));
                        }
                        "--max-lookahead" => {
                            max_lookahead = Some(number::<usize>(&mut args, "--max-lookahead")?)
                        }
                        other => return Err(format!("unexpected argument {other:?}")),
                    }
                }
                let source = match (lang, grammar) {
                    (Some(l), None) => GrammarSource::Lang(l),
                    (None, Some(g)) => GrammarSource::Ebnf(g),
                    _ => return Err("audit needs exactly one of --lang or --grammar".into()),
                };
                Ok(Args {
                    command: Command::Audit {
                        source,
                        format,
                        max_lookahead,
                    },
                })
            }
            "cost" => {
                let mut lang = None;
                let mut grammar = None;
                let mut format = LintFormat::Human;
                let mut max_steps_per_token = None;
                while let Some(a) = args.next() {
                    match a.as_str() {
                        "--lang" => lang = Some(required(&mut args, "--lang")?),
                        "--grammar" => grammar = Some(required(&mut args, "--grammar")?),
                        "--format=json" => format = LintFormat::Json,
                        "--format=human" => format = LintFormat::Human,
                        "--format" => {
                            format = match required(&mut args, "--format")?.as_str() {
                                "json" => LintFormat::Json,
                                "human" => LintFormat::Human,
                                other => {
                                    return Err(format!(
                                        "unknown cost format {other:?} (try human or json)"
                                    ))
                                }
                            }
                        }
                        other if other.starts_with("--format=") => {
                            return Err(format!(
                                "unknown cost format {:?} (try human or json)",
                                &other["--format=".len()..]
                            ));
                        }
                        "--max-steps-per-token" => {
                            max_steps_per_token =
                                Some(number::<u64>(&mut args, "--max-steps-per-token")?)
                        }
                        other => return Err(format!("unexpected argument {other:?}")),
                    }
                }
                let source = match (lang, grammar) {
                    (Some(l), None) => GrammarSource::Lang(l),
                    (None, Some(g)) => GrammarSource::Ebnf(g),
                    _ => return Err("cost needs exactly one of --lang or --grammar".into()),
                };
                Ok(Args {
                    command: Command::Cost {
                        source,
                        format,
                        max_steps_per_token,
                    },
                })
            }
            "edit" => {
                let mut lang = None;
                let mut file = None;
                let mut script = None;
                let mut format = LintFormat::Human;
                let mut oracle = false;
                while let Some(a) = args.next() {
                    match a.as_str() {
                        "--lang" => lang = Some(required(&mut args, "--lang")?),
                        "--script" => script = Some(required(&mut args, "--script")?),
                        "--format=json" => format = LintFormat::Json,
                        "--format=human" => format = LintFormat::Human,
                        "--format" => {
                            format = match required(&mut args, "--format")?.as_str() {
                                "json" => LintFormat::Json,
                                "human" => LintFormat::Human,
                                other => {
                                    return Err(format!(
                                        "unknown edit format {other:?} (try human or json)"
                                    ))
                                }
                            }
                        }
                        other if other.starts_with("--format=") => {
                            return Err(format!(
                                "unknown edit format {:?} (try human or json)",
                                &other["--format=".len()..]
                            ));
                        }
                        "--oracle" => oracle = true,
                        other if !other.starts_with('-') && file.is_none() => {
                            file = Some(other.to_owned());
                        }
                        other => return Err(format!("unexpected argument {other:?}")),
                    }
                }
                Ok(Args {
                    command: Command::Edit {
                        lang: lang.ok_or("edit needs --lang")?,
                        file: file.ok_or("edit needs a FILE")?,
                        script: script.ok_or("edit needs --script EDITS.json")?,
                        format,
                        oracle,
                    },
                })
            }
            "generate" => {
                let mut lang = None;
                let mut size = 1_000usize;
                let mut seed = 0u64;
                while let Some(a) = args.next() {
                    match a.as_str() {
                        "--lang" => lang = Some(required(&mut args, "--lang")?),
                        "--size" => {
                            size = required(&mut args, "--size")?
                                .parse()
                                .map_err(|_| "--size takes a number")?;
                        }
                        "--seed" => {
                            seed = required(&mut args, "--seed")?
                                .parse()
                                .map_err(|_| "--seed takes a number")?;
                        }
                        other => return Err(format!("unexpected argument {other:?}")),
                    }
                }
                Ok(Args {
                    command: Command::Generate {
                        lang: lang.ok_or("generate needs --lang")?,
                        size,
                        seed,
                    },
                })
            }
            "tokens" => {
                let mut lang = None;
                let mut file = None;
                while let Some(a) = args.next() {
                    match a.as_str() {
                        "--lang" => lang = Some(required(&mut args, "--lang")?),
                        other if !other.starts_with('-') && file.is_none() => {
                            file = Some(other.to_owned());
                        }
                        other => return Err(format!("unexpected argument {other:?}")),
                    }
                }
                Ok(Args {
                    command: Command::Tokens {
                        lang: lang.ok_or("tokens needs --lang")?,
                        file: file.ok_or("tokens needs a FILE")?,
                    },
                })
            }
            other => Err(format!("unknown subcommand {other:?}")),
        }
    }
}

/// Shared flag grammar for `lint` and `analyze`: exactly one of
/// `--lang`/`--grammar` plus an optional `--format=human|json`.
fn source_and_format(
    args: &mut std::iter::Peekable<impl Iterator<Item = String>>,
    sub: &str,
) -> Result<(GrammarSource, LintFormat), String> {
    let mut lang = None;
    let mut grammar = None;
    let mut format = LintFormat::Human;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--lang" => lang = Some(required(args, "--lang")?),
            "--grammar" => grammar = Some(required(args, "--grammar")?),
            "--format=json" => format = LintFormat::Json,
            "--format=human" => format = LintFormat::Human,
            "--format" => {
                format = match required(args, "--format")?.as_str() {
                    "json" => LintFormat::Json,
                    "human" => LintFormat::Human,
                    other => {
                        return Err(format!(
                            "unknown {sub} format {other:?} (try human or json)"
                        ))
                    }
                }
            }
            other if other.starts_with("--format=") => {
                return Err(format!(
                    "unknown {sub} format {:?} (try human or json)",
                    &other["--format=".len()..]
                ));
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let source = match (lang, grammar) {
        (Some(l), None) => GrammarSource::Lang(l),
        (None, Some(g)) => GrammarSource::Ebnf(g),
        _ => return Err(format!("{sub} needs exactly one of --lang or --grammar")),
    };
    Ok((source, format))
}

fn required(
    args: &mut std::iter::Peekable<impl Iterator<Item = String>>,
    flag: &str,
) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(
    args: &mut std::iter::Peekable<impl Iterator<Item = String>>,
    flag: &str,
) -> Result<T, String> {
    required(args, flag)?
        .parse()
        .map_err(|_| format!("{flag} takes a number"))
}

/// A built-in language's constructor and generator, by name
/// (case-insensitive).
fn lookup(name: &str) -> Result<(Constructor, Generator), String> {
    LANGUAGES
        .iter()
        .find(|(key, _, _)| key.eq_ignore_ascii_case(name))
        .map(|&(_, build, generate)| (build, generate))
        .ok_or_else(|| format!("unknown language {name:?} (json, xml, dot, python)"))
}

/// Builds the built-in language `name` (case-insensitive), and no other.
pub fn find_language(name: &str) -> Result<Language, String> {
    lookup(name).map(|(build, _)| build())
}

/// The generator of the built-in language `name` (case-insensitive);
/// builds no language.
pub fn find_generator(name: &str) -> Result<Generator, String> {
    lookup(name).map(|(_, generate)| generate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parse_command_with_lang() {
        let a = parse(&["parse", "--lang", "json", "file.json", "--tree", "--time"]).unwrap();
        let Command::Parse {
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
        } = a.command
        else {
            panic!("wrong command")
        };
        assert_eq!(source, GrammarSource::Lang("json".into()));
        assert_eq!(inputs, vec!["file.json".to_owned()]);
        assert!(tree && time);
        assert_eq!(stats, StatsMode::Off);
        assert!(trace_buffer.is_none());
        assert!(max_steps.is_none() && deadline_ms.is_none() && cache_cap.is_none());
        assert_eq!(recover, RecoverMode::Off);
        assert!(max_recoveries.is_none());
        assert!(!no_grammar_cache);
        assert!(jobs.is_none());
        assert!(!warm_cache);
    }

    #[test]
    fn parse_command_batch_flags() {
        let a = parse(&[
            "parse",
            "--lang",
            "json",
            "a.json",
            "b.json",
            "c.json",
            "--jobs",
            "4",
            "--warm-cache",
        ])
        .unwrap();
        let Command::Parse {
            inputs,
            jobs,
            warm_cache,
            ..
        } = a.command
        else {
            panic!("wrong command")
        };
        assert_eq!(inputs, vec!["a.json", "b.json", "c.json"]);
        assert_eq!(jobs, Some(4));
        assert!(warm_cache);

        assert!(parse(&["parse", "--lang", "json", "f", "--jobs"]).is_err());
        assert!(parse(&["parse", "--lang", "json", "f", "--jobs", "many"]).is_err());
        // --grammar mode takes --tokens, not positional files.
        assert!(parse(&["parse", "--grammar", "g.ebnf", "--tokens", "a", "stray"]).is_err());
    }

    #[test]
    fn recover_flags() {
        let a = parse(&["parse", "--lang", "json", "f", "--recover"]).unwrap();
        let Command::Parse { recover, .. } = a.command else {
            panic!("wrong command")
        };
        assert_eq!(recover, RecoverMode::Human);

        let a = parse(&[
            "parse",
            "--lang",
            "json",
            "f",
            "--recover=json",
            "--max-recoveries",
            "16",
            "--no-grammar-cache",
        ])
        .unwrap();
        let Command::Parse {
            recover,
            max_recoveries,
            no_grammar_cache,
            ..
        } = a.command
        else {
            panic!("wrong command")
        };
        assert_eq!(recover, RecoverMode::Json);
        assert_eq!(max_recoveries, Some(16));
        assert!(no_grammar_cache);

        assert!(parse(&["parse", "--lang", "json", "f", "--recover=yaml"]).is_err());
        assert!(parse(&["parse", "--lang", "json", "f", "--max-recoveries", "x"]).is_err());
    }

    #[test]
    fn stats_modes_and_trace_buffer() {
        let a = parse(&["parse", "--lang", "json", "f", "--stats"]).unwrap();
        let Command::Parse { stats, .. } = a.command else {
            panic!("wrong command")
        };
        assert_eq!(stats, StatsMode::Human);

        let a = parse(&[
            "parse",
            "--lang",
            "json",
            "f",
            "--stats=json",
            "--trace-buffer",
            "128",
        ])
        .unwrap();
        let Command::Parse {
            stats,
            trace_buffer,
            ..
        } = a.command
        else {
            panic!("wrong command")
        };
        assert_eq!(stats, StatsMode::Json);
        assert_eq!(trace_buffer, Some(128));

        assert!(parse(&["parse", "--lang", "json", "f", "--stats=yaml"]).is_err());
        assert!(parse(&["parse", "--lang", "json", "f", "--trace-buffer", "many"]).is_err());
        assert!(parse(&["parse", "--lang", "json", "f", "--trace-buffer"]).is_err());
    }

    #[test]
    fn parse_command_budget_flags() {
        let a = parse(&[
            "parse",
            "--lang",
            "json",
            "file.json",
            "--max-steps",
            "5000",
            "--deadline-ms",
            "250",
            "--cache-cap",
            "64",
        ])
        .unwrap();
        let Command::Parse {
            max_steps,
            deadline_ms,
            cache_cap,
            ..
        } = a.command
        else {
            panic!("wrong command")
        };
        assert_eq!(max_steps, Some(MaxSteps::Fixed(5000)));
        assert_eq!(deadline_ms, Some(250));
        assert_eq!(cache_cap, Some(64));
    }

    #[test]
    fn budget_flags_reject_garbage() {
        assert!(parse(&["parse", "--lang", "json", "f", "--max-steps", "lots"]).is_err());
        assert!(parse(&["parse", "--lang", "json", "f", "--deadline-ms"]).is_err());
        assert!(parse(&["parse", "--lang", "json", "f", "--cache-cap", "-3"]).is_err());
    }

    #[test]
    fn max_steps_auto_and_zero_budgets() {
        let a = parse(&["parse", "--lang", "json", "f", "--max-steps", "auto"]).unwrap();
        let Command::Parse { max_steps, .. } = a.command else {
            panic!("wrong command")
        };
        assert_eq!(max_steps, Some(MaxSteps::Auto));
        // Zero fuel and a zero deadline would abort every parse before it
        // starts — both are usage errors, not budgets.
        let err = parse(&["parse", "--lang", "json", "f", "--max-steps", "0"]).unwrap_err();
        assert!(err.contains("--max-steps"), "unhelpful error: {err}");
        let err = parse(&["parse", "--lang", "json", "f", "--deadline-ms", "0"]).unwrap_err();
        assert!(err.contains("--deadline-ms"), "unhelpful error: {err}");
        // The smallest meaningful values remain valid.
        assert!(parse(&["parse", "--lang", "json", "f", "--max-steps", "1"]).is_ok());
        assert!(parse(&["parse", "--lang", "json", "f", "--deadline-ms", "1"]).is_ok());
    }

    #[test]
    fn cost_command_and_flags() {
        let a = parse(&["cost", "--grammar", "g.ebnf"]).unwrap();
        assert_eq!(
            a.command,
            Command::Cost {
                source: GrammarSource::Ebnf("g.ebnf".into()),
                format: LintFormat::Human,
                max_steps_per_token: None,
            }
        );
        let a = parse(&[
            "cost",
            "--lang",
            "json",
            "--format=json",
            "--max-steps-per-token",
            "64",
        ])
        .unwrap();
        assert_eq!(
            a.command,
            Command::Cost {
                source: GrammarSource::Lang("json".into()),
                format: LintFormat::Json,
                max_steps_per_token: Some(64),
            }
        );
        assert!(parse(&["cost"]).is_err());
        assert!(parse(&["cost", "--lang", "json", "--grammar", "g.ebnf"]).is_err());
        assert!(parse(&["cost", "--lang", "json", "--format=yaml"]).is_err());
        assert!(parse(&["cost", "--lang", "json", "--max-steps-per-token", "lots"]).is_err());
    }

    #[test]
    fn parse_command_with_grammar_and_tokens() {
        let a = parse(&["parse", "--grammar", "g.ebnf", "--tokens", "a b c"]).unwrap();
        let Command::Parse { source, inputs, .. } = a.command else {
            panic!("wrong command")
        };
        assert_eq!(source, GrammarSource::Ebnf("g.ebnf".into()));
        assert_eq!(inputs, vec!["a b c".to_owned()]);
    }

    #[test]
    fn parse_requires_exactly_one_source() {
        assert!(parse(&["parse", "file"]).is_err());
        assert!(parse(&["parse", "--lang", "json", "--grammar", "g.ebnf"]).is_err());
    }

    #[test]
    fn check_and_generate() {
        let a = parse(&["check", "--grammar", "g.ebnf", "--eliminate-lr"]).unwrap();
        assert!(matches!(
            a.command,
            Command::Check {
                eliminate_lr: true,
                ..
            }
        ));
        let a = parse(&["generate", "--lang", "dot", "--size", "500", "--seed", "9"]).unwrap();
        assert_eq!(
            a.command,
            Command::Generate {
                lang: "dot".into(),
                size: 500,
                seed: 9
            }
        );
    }

    #[test]
    fn lint_command_and_formats() {
        let a = parse(&["lint", "--grammar", "g.ebnf"]).unwrap();
        assert_eq!(
            a.command,
            Command::Lint {
                source: GrammarSource::Ebnf("g.ebnf".into()),
                format: LintFormat::Human,
            }
        );
        let a = parse(&["lint", "--lang", "json", "--format=json"]).unwrap();
        assert_eq!(
            a.command,
            Command::Lint {
                source: GrammarSource::Lang("json".into()),
                format: LintFormat::Json,
            }
        );
        let a = parse(&["lint", "--lang", "json", "--format", "human"]).unwrap();
        assert!(matches!(
            a.command,
            Command::Lint {
                format: LintFormat::Human,
                ..
            }
        ));
        assert!(parse(&["lint"]).is_err());
        assert!(parse(&["lint", "--lang", "json", "--grammar", "g.ebnf"]).is_err());
        assert!(parse(&["lint", "--lang", "json", "--format=yaml"]).is_err());
        assert!(parse(&["lint", "--lang", "json", "--format"]).is_err());
    }

    #[test]
    fn analyze_command_and_formats() {
        let a = parse(&["analyze", "--grammar", "g.ebnf"]).unwrap();
        assert_eq!(
            a.command,
            Command::Analyze {
                source: GrammarSource::Ebnf("g.ebnf".into()),
                format: LintFormat::Human,
            }
        );
        let a = parse(&["analyze", "--lang", "json", "--format=json"]).unwrap();
        assert_eq!(
            a.command,
            Command::Analyze {
                source: GrammarSource::Lang("json".into()),
                format: LintFormat::Json,
            }
        );
        assert!(parse(&["analyze"]).is_err());
        assert!(parse(&["analyze", "--lang", "json", "--format=yaml"]).is_err());
        assert!(parse(&["analyze", "--lang", "json", "--grammar", "g.ebnf"]).is_err());
    }

    #[test]
    fn audit_command_and_flags() {
        let a = parse(&["audit", "--grammar", "g.ebnf"]).unwrap();
        assert_eq!(
            a.command,
            Command::Audit {
                source: GrammarSource::Ebnf("g.ebnf".into()),
                format: LintFormat::Human,
                max_lookahead: None,
            }
        );
        let a = parse(&[
            "audit",
            "--lang",
            "json",
            "--format=json",
            "--max-lookahead",
            "3",
        ])
        .unwrap();
        assert_eq!(
            a.command,
            Command::Audit {
                source: GrammarSource::Lang("json".into()),
                format: LintFormat::Json,
                max_lookahead: Some(3),
            }
        );
        assert!(parse(&["audit"]).is_err());
        assert!(parse(&["audit", "--lang", "json", "--grammar", "g.ebnf"]).is_err());
        assert!(parse(&["audit", "--lang", "json", "--format=yaml"]).is_err());
        assert!(parse(&["audit", "--lang", "json", "--max-lookahead", "deep"]).is_err());
    }

    #[test]
    fn edit_command_and_flags() {
        let a = parse(&["edit", "--lang", "json", "f.json", "--script", "e.json"]).unwrap();
        assert_eq!(
            a.command,
            Command::Edit {
                lang: "json".into(),
                file: "f.json".into(),
                script: "e.json".into(),
                format: LintFormat::Human,
                oracle: false,
            }
        );
        let a = parse(&[
            "edit",
            "--lang",
            "xml",
            "--script",
            "e.json",
            "doc.xml",
            "--format=json",
            "--oracle",
        ])
        .unwrap();
        assert_eq!(
            a.command,
            Command::Edit {
                lang: "xml".into(),
                file: "doc.xml".into(),
                script: "e.json".into(),
                format: LintFormat::Json,
                oracle: true,
            }
        );
        // All three of --lang, FILE, --script are required.
        assert!(parse(&["edit", "--lang", "json", "f.json"]).is_err());
        assert!(parse(&["edit", "--lang", "json", "--script", "e.json"]).is_err());
        assert!(parse(&["edit", "f.json", "--script", "e.json"]).is_err());
        assert!(parse(&[
            "edit",
            "--lang",
            "json",
            "f",
            "--script",
            "e",
            "--format=yaml"
        ])
        .is_err());
        // A second positional file is an error, not silently ignored.
        assert!(parse(&["edit", "--lang", "json", "a", "b", "--script", "e"]).is_err());
    }

    #[test]
    fn jobs_zero_is_a_usage_error() {
        let err = parse(&["parse", "--lang", "json", "f", "--jobs", "0"]).unwrap_err();
        assert!(err.contains("--jobs"), "unhelpful error: {err}");
        // One worker remains valid.
        assert!(parse(&["parse", "--lang", "json", "f", "--jobs", "1"]).is_ok());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["generate"]).is_err());
        assert!(parse(&["generate", "--lang", "dot", "--size", "xyz"]).is_err());
        assert!(parse(&["tokens", "--lang", "json"]).is_err());
    }

    #[test]
    fn language_lookup_is_case_insensitive() {
        for (name, display) in [
            ("jSoN", "JSON"),
            ("Xml", "XML"),
            ("doT", "DOT"),
            ("PYTHON", "Python"),
        ] {
            assert_eq!(find_language(name).unwrap().name, display);
            let generate = find_generator(name).unwrap();
            assert!(!generate(1, 10).is_empty(), "{name}");
        }
        let err = find_language("cobol").unwrap_err();
        assert_eq!(err, "unknown language \"cobol\" (json, xml, dot, python)");
        assert_eq!(find_generator("cobol").unwrap_err(), err);
    }
}
