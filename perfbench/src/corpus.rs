//! `corpus`: one operation reads, lexes and parses one generated file,
//! then drops the tree — the paper's Fig. 9/10 pipeline.
//!
//! The corpus holds [`FILES_PER_LANG`] files of each language, with size
//! knobs spread linearly up to the language's maximum (the same spread on
//! every seed; the seed fixes the contents). Operations walk the corpus
//! in a fresh seeded order each pass, so every seed sees the same mix of
//! languages and sizes. Each file is parsed with a cold prediction cache
//! (`Parser`'s default per-input policy, as in published CoStar).

use crate::lang::{yield_matches, Lang};
use crate::rng::{digest, mix, Rng};
use crate::{build_langs, ns_since, repeat_setup, Config, Ctx, Op, Workload};
use costar::{ParseOutcome, Parser};
use costar_langs::Language;
use std::path::PathBuf;
use std::time::Instant;

/// Files generated per language.
pub const FILES_PER_LANG: usize = 12;

/// Largest generator size knob per language (index of [`Lang::ALL`]),
/// chosen so the largest file of each language has a few thousand tokens.
pub const MAX_SIZE: [usize; 4] = [6000, 6000, 3000, 3000];

/// The generated corpus: per language, the file texts in size order.
pub fn generate(seed: u64) -> Vec<(Lang, Vec<String>)> {
    Lang::ALL
        .iter()
        .map(|&lang| {
            let s = mix(seed ^ (0xC079 + lang.index() as u64));
            let files =
                costar_langs::corpus(lang.generator(), s, FILES_PER_LANG, MAX_SIZE[lang.index()]);
            (lang, files)
        })
        .collect()
}

struct LangState {
    lang: Lang,
    language: Language,
    parser: Parser,
}

/// The `corpus` workload.
pub struct Corpus {
    langs: Vec<LangState>,
    files: Vec<(usize, PathBuf)>,
    order: Vec<usize>,
    rng: Rng,
}

impl Corpus {
    /// Set-up (timed, repeated) and corpus generation (untimed).
    pub fn new(cfg: &Config, ctx: &mut Ctx) -> Result<(Self, Vec<f64>, u64), String> {
        let (langs, setup) = repeat_setup(cfg.setup_reps, ctx, |ctx| {
            build_langs(&Lang::ALL, ctx)
                .into_iter()
                .map(|b| LangState {
                    lang: b.lang,
                    parser: Parser::with_analysis(b.language.grammar().clone(), b.analysis),
                    language: b.language,
                })
                .collect::<Vec<_>>()
        });
        let dir = cfg.work_dir.join("corpus");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut files = Vec::new();
        let mut d = 0u64;
        for (li, (lang, texts)) in generate(cfg.seed).into_iter().enumerate() {
            for (k, text) in texts.iter().enumerate() {
                d = digest(d, text.as_bytes());
                let path = dir.join(format!("{}-{k}.{}", lang.key(), lang.key()));
                std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
                files.push((li, path));
            }
        }
        let w = Corpus {
            langs,
            files,
            order: Vec::new(),
            rng: Rng::new(mix(cfg.seed ^ 0x0DE5)),
        };
        Ok((w, setup, d))
    }
}

impl Workload for Corpus {
    fn op(&mut self, _i: u64, ctx: &mut Ctx) -> Op {
        if self.order.is_empty() {
            self.order = (0..self.files.len()).collect();
            self.rng.shuffle(&mut self.order);
        }
        let fi = self.order.pop().expect("refilled above");
        let (li, path) = &self.files[fi];
        let st = &mut self.langs[*li];

        let t0 = Instant::now();
        ctx.begin("io.read");
        let src = std::fs::read_to_string(path);
        ctx.end();
        let Ok(src) = src else {
            return Op {
                wall_ns: ns_since(t0),
                tokens: 0,
                ok: false,
            };
        };
        ctx.begin("lexer.tokenize");
        let tokens = st.language.tokenize(&src);
        ctx.end();
        let Ok(tokens) = tokens else {
            return Op {
                wall_ns: ns_since(t0),
                tokens: 0,
                ok: false,
            };
        };
        ctx.begin(st.lang.parse_span());
        let (outcome, metrics) = if ctx.traced() {
            let (o, m) = st.parser.parse_with_metrics(&tokens);
            (o, Some(m))
        } else {
            (st.parser.parse(&tokens), None)
        };
        ctx.end();
        let timed = ns_since(t0);

        // Known answers, outside the timed region: generated files are
        // valid and unambiguous, and the tree spells the token word.
        let ok = match &outcome {
            ParseOutcome::Unique(tree) => {
                yield_matches(tree, &tokens)
                    && (!ctx.sampled(8)
                        || costar_grammar::check_tree(
                            st.parser.grammar(),
                            st.parser.grammar().start(),
                            &tokens,
                            tree,
                        )
                        .is_ok())
            }
            _ => false,
        };
        if let Some(m) = metrics {
            ctx.counts.tokens_lexed += tokens.len() as u64;
            ctx.parse_done(st.lang, &m);
            if let Some(tree) = outcome.tree() {
                ctx.counts.trees += 1;
                ctx.counts.tree_nodes += tree.size() as u64;
            }
        }

        let n = tokens.len() as u64;
        let t2 = Instant::now();
        ctx.begin("tree.drop");
        drop(outcome);
        ctx.end();
        drop(tokens);
        drop(src);
        Op {
            wall_ns: timed + ns_since(t2),
            tokens: n,
            ok,
        }
    }
}
