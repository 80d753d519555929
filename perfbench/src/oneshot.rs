//! `oneshot`: one operation is one `costar parse --lang L FILE` child
//! process on a small file, run to exit with its output drained.
//!
//! Each language has [`FILES_PER_LANG`] small files, [`INVALID_PER_LANG`]
//! of them made invalid by an extra opening bracket. Each language
//! cycles through [`MODES`]: no cache (the default), `COSTAR_CACHE_DIR`
//! set to a directory the benchmark owns (one per language) — some of
//! those emptied first, so the child computes and writes the analysis
//! instead of replaying it — and `--tree`. Every cycle pairs a seeded permutation of the files
//! with a seeded permutation of the modes, so every seed sees the same
//! mix.
//!
//! The child's layers are invisible from outside. The traced run
//! therefore replays each operation's layer calls in-process after the
//! child exits (read, language build, analysis compute / replay / write,
//! lex, parse, render, drop) under the operation's id, replaying the
//! analysis the child found or writing one where it did not; `cli.unattributed`
//! is the child's wall time minus those layers: process start, argument
//! handling, output and exit.

use crate::lang::{break_at, Lang};
use crate::rng::{digest, mix, Rng};
use crate::{build_langs, ns_since, repeat_setup, Config, Ctx, Op, Workload};
use costar::{ParseOutcome, Parser};
use costar_grammar::analysis::{self, GrammarAnalysis};
use costar_grammar::Grammar;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Small files per language.
pub const FILES_PER_LANG: usize = 8;
/// How many of them are invalid.
pub const INVALID_PER_LANG: usize = 2;
/// Generator size knob (index of [`Lang::ALL`]) for files of about 1 KB.
pub const FILE_SIZE: [usize; 4] = [200, 200, 100, 100];

/// How one invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// `COSTAR_CACHE_DIR` set.
    pub cache: bool,
    /// Cache directory emptied first (only with `cache`).
    pub cold: bool,
    /// `--tree`.
    pub tree: bool,
}

const fn mode(cache: bool, cold: bool, tree: bool) -> Mode {
    Mode { cache, cold, tree }
}

/// One cycle of invocations per language.
pub const MODES: [Mode; FILES_PER_LANG] = [
    mode(false, false, false),
    mode(false, false, false),
    mode(false, false, true),
    mode(true, false, false),
    mode(true, false, false),
    mode(true, false, true),
    mode(true, true, false),
    mode(true, true, false),
];

struct Case {
    path: PathBuf,
    valid: bool,
    tokens: usize,
}

/// The `oneshot` workload.
pub struct OneShot {
    langs: Vec<(Lang, Vec<Case>)>,
    cycles: Vec<Vec<(usize, Mode)>>,
    rng: Rng,
    bin: Option<PathBuf>,
    /// Per language: the children's cache directory and the replay's.
    dirs: Vec<(PathBuf, PathBuf)>,
    /// Per language: the cache file name (the grammar's fingerprint).
    cache_names: Vec<PathBuf>,
}

fn empty_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::create_dir_all(dir);
}

fn cache_file(dir: &Path, g: &Grammar) -> PathBuf {
    dir.join(format!("{:016x}.json", analysis::grammar_fingerprint(g)))
}

impl OneShot {
    /// Set-up (timed, repeated), then the small files (untimed).
    pub fn new(cfg: &Config, ctx: &mut Ctx) -> Result<(Self, Vec<f64>, u64), String> {
        let (built, setup) = repeat_setup(cfg.setup_reps, ctx, |ctx| build_langs(&Lang::ALL, ctx));
        let dir = cfg.work_dir.join("oneshot");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dirs: Vec<(PathBuf, PathBuf)> = Lang::ALL
            .iter()
            .map(|l| {
                let cache = cfg.work_dir.join("cache").join(l.key());
                let replay = cfg.work_dir.join("replay-cache").join(l.key());
                empty_dir(&cache);
                empty_dir(&replay);
                (cache, replay)
            })
            .collect();
        let mut d = 0u64;
        let mut langs = Vec::new();
        for b in &built {
            let lang = b.lang;
            let (open, close) = lang.brackets();
            if !crate::lang::brackets_balance(b.language.grammar(), open, close) {
                return Err(format!("{}: `{open}`/`{close}` do not balance", lang.key()));
            }
            let mut rng = Rng::new(mix(cfg.seed ^ (0x054E + lang.index() as u64)));
            let mut cases = Vec::new();
            for k in 0..FILES_PER_LANG {
                let mut text = (lang.generator())(rng.next_u64(), FILE_SIZE[lang.index()]);
                let valid = k >= INVALID_PER_LANG;
                if !valid {
                    let tokens = b.language.tokenize(&text).map_err(|e| e.to_string())?;
                    text = break_at(lang, &text, &tokens, rng.next_u64() as usize).0;
                }
                let tokens = b
                    .language
                    .tokenize(&text)
                    .map_err(|e| format!("{}: {e}", lang.key()))?
                    .len();
                d = digest(d, text.as_bytes());
                let path = dir.join(format!("{}-{k}.{}", lang.key(), lang.key()));
                std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
                cases.push(Case {
                    path,
                    valid,
                    tokens,
                });
            }
            langs.push((lang, cases));
        }
        let cache_names = built
            .iter()
            .map(|b| cache_file(Path::new(""), b.language.grammar()))
            .collect();
        let w = OneShot {
            cache_names,
            cycles: vec![Vec::new(); langs.len()],
            langs,
            rng: Rng::new(mix(cfg.seed ^ 0x0C7C)),
            bin: cfg.costar_bin.clone(),
            dirs,
        };
        Ok((w, setup, d))
    }

    fn spawn(&self, lang: Lang, case: &Case, mode: Mode) -> std::io::Result<std::process::Output> {
        let bin = self.bin.as_deref().expect("checked by the caller");
        let cache_dir = &self.dirs[lang.index()].0;
        let mut cmd = Command::new(bin);
        cmd.arg("parse")
            .arg("--lang")
            .arg(lang.key())
            .arg(&case.path);
        if mode.tree {
            cmd.arg("--tree");
        }
        if mode.cache {
            cmd.env("COSTAR_CACHE_DIR", cache_dir);
        } else {
            cmd.env_remove("COSTAR_CACHE_DIR");
        }
        cmd.stdin(Stdio::null()).output()
    }
}

/// The child's answer matches the file's known validity: exit code, and
/// the verdict line (with the token count for valid files).
fn child_ok(case: &Case, mode: Mode, out: &std::process::Output) -> bool {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = stdout.lines().next().unwrap_or("");
    if case.valid {
        out.status.code() == Some(0)
            && first.starts_with(&format!("unique parse ({} tokens,", case.tokens))
            && (!mode.tree || stdout.len() > first.len() + 1)
    } else {
        out.status.code() == Some(1) && first.starts_with("reject:")
    }
}

/// In-process replay of what one child does, each layer call in its
/// span; returns whether the replayed verdict matches the known answer.
/// `warm` says whether the child found `cached` (the analysis to replay)
/// when it started; a computed analysis is written to `write_to`.
fn replay(
    ctx: &mut Ctx,
    lang: Lang,
    (case, mode): (&Case, Mode),
    warm: bool,
    cached: &Path,
    write_to: &Path,
) -> bool {
    ctx.begin("io.read");
    let src = std::fs::read_to_string(&case.path);
    ctx.end();
    let Ok(src) = src else { return false };
    ctx.begin("ebnf.compile");
    let language = lang.build();
    ctx.end();
    let g = language.grammar();
    let analysis = if mode.cache {
        ctx.counts.analysis_lookups += 1;
        let replayed = if warm {
            ctx.begin("analysis.replay");
            let a = std::fs::read_to_string(cached)
                .ok()
                .and_then(|text| analysis::from_cache_json(g, &text));
            ctx.end();
            a
        } else {
            None
        };
        ctx.counts.analysis_hits += u64::from(replayed.is_some());
        match replayed {
            Some(a) => a,
            None => {
                ctx.begin("analysis.compute");
                let a = GrammarAnalysis::compute(g);
                ctx.end();
                ctx.begin("analysis.write");
                let json = analysis::to_cache_json(g, &a);
                let _ = analysis::write_cache_atomic(write_to, &json);
                ctx.end();
                a
            }
        }
    } else {
        ctx.begin("analysis.compute");
        let a = GrammarAnalysis::compute(g);
        ctx.end();
        a
    };
    ctx.begin("lexer.tokenize");
    let tokens = language.tokenize(&src);
    ctx.end();
    let Ok(tokens) = tokens else { return false };
    ctx.begin(lang.parse_span());
    let mut parser = Parser::with_analysis(g.clone(), analysis);
    let (outcome, m) = parser.parse_with_metrics(&tokens);
    ctx.end();
    ctx.counts.tokens_lexed += tokens.len() as u64;
    ctx.parse_done(lang, &m);
    if let Some(tree) = outcome.tree() {
        ctx.counts.trees += 1;
        ctx.counts.tree_nodes += tree.size() as u64;
        if mode.tree {
            ctx.begin("tree.render");
            let text = tree.render(parser.grammar().symbols());
            ctx.end();
            ctx.counts.renders += 1;
            ctx.counts.render_bytes += text.len() as u64;
            ctx.counts.rendered_source_bytes += src.len() as u64;
        }
    }
    let ok = matches!(outcome, ParseOutcome::Unique(_)) == case.valid;
    ctx.begin("tree.drop");
    drop(outcome);
    ctx.end();
    ok
}

impl Workload for OneShot {
    fn op(&mut self, i: u64, ctx: &mut Ctx) -> Op {
        let li = (i % self.langs.len() as u64) as usize;
        if self.cycles[li].is_empty() {
            let mut files: Vec<usize> = (0..FILES_PER_LANG).collect();
            let mut modes = MODES.to_vec();
            self.rng.shuffle(&mut files);
            self.rng.shuffle(&mut modes);
            self.cycles[li] = files.into_iter().zip(modes).collect();
        }
        let (fi, mode) = self.cycles[li].pop().expect("refilled above");
        let (lang, cases) = &self.langs[li];
        let (lang, case) = (*lang, &cases[fi]);

        let (cache_dir, replay_dir) = &self.dirs[lang.index()];
        if mode.cold {
            empty_dir(cache_dir);
        }
        // Whether the child will find an analysis to replay; without a
        // child the replay itself fills the directory.
        let cached = cache_dir.join(&self.cache_names[lang.index()]);
        let warm = mode.cache && cached.exists();
        let write_to = match self.bin {
            Some(_) => replay_dir.join(&self.cache_names[lang.index()]),
            None => cached.clone(),
        };

        let (wall_ns, mut ok) = if self.bin.is_some() {
            let t0 = Instant::now();
            ctx.begin("cli.process");
            let out = self.spawn(lang, case, mode);
            ctx.end();
            let wall = ns_since(t0);
            (wall, out.is_ok_and(|o| child_ok(case, mode, &o)))
        } else {
            (0, true)
        };
        if ctx.traced() || self.bin.is_none() {
            let t = Instant::now();
            ok &= replay(ctx, lang, (case, mode), warm, &cached, &write_to);
            if self.bin.is_none() {
                return Op {
                    wall_ns: ns_since(t),
                    tokens: case.tokens as u64,
                    ok,
                };
            }
        }
        Op {
            wall_ns,
            tokens: case.tokens as u64,
            ok,
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::host::children_peak_rss_mb()
    }
}
