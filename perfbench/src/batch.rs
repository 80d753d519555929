//! `batch`: one operation is one `BatchParser::parse_many` call over one
//! language's share of the `corpus` inputs (pre-lexed), with
//! `min(available_parallelism, 4)` workers — the CLI's multi-file path.
//! Languages take turns in the order of [`TURNS`]. The traced run also times a `jobs = 1` call on
//! the same inputs after each operation, outside it, for the scaling
//! figures; a one-core host skips them.

use crate::lang::{yield_matches, Lang};
use crate::rng::digest;
use crate::{build_langs, ns_since, repeat_setup, Config, Ctx, Op, Workload};
use costar::{BatchParser, ParseOutcome};
use costar_grammar::Token;
use std::sync::Arc;
use std::time::Instant;

/// The language order operations cycle through. Python, the slowest per
/// token, takes two turns in five: the per-language call times form
/// separate clusters, and an odd cycle keeps the median inside one
/// cluster instead of on the edge between two.
pub const TURNS: [Lang; 5] = [Lang::Json, Lang::Xml, Lang::Dot, Lang::Python, Lang::Python];

/// The `batch` workload.
pub struct Batch {
    sets: Vec<(Lang, BatchParser, Vec<Vec<Token>>)>,
    jobs: usize,
}

/// Worker count: the host's parallelism, at most four.
pub fn jobs() -> usize {
    crate::host::available_parallelism().min(4)
}

impl Batch {
    /// Set-up (timed, repeated), then the corpus, lexed (untimed).
    pub fn new(cfg: &Config, ctx: &mut Ctx) -> Result<(Self, Vec<f64>, u64), String> {
        let jobs = jobs();
        let (built, setup) = repeat_setup(cfg.setup_reps, ctx, |ctx| {
            build_langs(&Lang::ALL, ctx)
                .into_iter()
                .map(|b| {
                    let grammar = Arc::new(b.language.grammar().clone());
                    let bp =
                        BatchParser::with_shared(grammar, Arc::new(b.analysis)).with_jobs(jobs);
                    (b.lang, b.language, bp)
                })
                .collect::<Vec<_>>()
        });
        let mut d = 0u64;
        let mut sets = Vec::new();
        for ((lang, language, bp), (_, texts)) in
            built.into_iter().zip(crate::corpus::generate(cfg.seed))
        {
            let mut inputs = Vec::new();
            for text in &texts {
                d = digest(d, text.as_bytes());
                inputs.push(
                    language
                        .tokenize(text)
                        .map_err(|e| format!("{}: {e}", lang.key()))?,
                );
            }
            sets.push((lang, bp, inputs));
        }
        Ok((Batch { sets, jobs }, setup, d))
    }
}

impl Workload for Batch {
    fn op(&mut self, i: u64, ctx: &mut Ctx) -> Op {
        let turn = TURNS[(i % TURNS.len() as u64) as usize];
        let (lang, bp, inputs) = &self.sets[turn.index()];
        let t0 = Instant::now();
        ctx.begin("batch.parse_many");
        let result = bp.parse_many(inputs);
        ctx.end();
        let timed = ns_since(t0);

        // Known answers, outside the timed region.
        let sample = ctx.sample.below(inputs.len());
        let mut ok = result.items.len() == inputs.len();
        for (k, (item, word)) in result.items.iter().zip(inputs).enumerate() {
            ok &= match item.outcome() {
                ParseOutcome::Unique(tree) => {
                    yield_matches(tree, word)
                        && (k != sample
                            || costar_grammar::check_tree(
                                bp.grammar(),
                                bp.grammar().start(),
                                word,
                                tree,
                            )
                            .is_ok())
                }
                _ => false,
            };
        }
        if ctx.traced() {
            for item in &result.items {
                ctx.parse_done(*lang, &item.metrics);
                if let Some(tree) = item.tree() {
                    ctx.counts.trees += 1;
                    ctx.counts.tree_nodes += tree.size() as u64;
                }
            }
        }
        let tokens: u64 = inputs.iter().map(|w| w.len() as u64).sum();

        let t2 = Instant::now();
        ctx.begin("tree.drop");
        drop(result);
        ctx.end();
        let wall_ns = timed + ns_since(t2);

        if ctx.traced() && self.jobs > 1 {
            let one = bp.clone().with_jobs(1);
            let t = Instant::now();
            let r = one.parse_many(inputs);
            ctx.batch_scaling.0 += ns_since(t);
            ctx.batch_scaling.1 += timed;
            drop(r);
        }
        Op {
            wall_ns,
            tokens,
            ok,
        }
    }

    fn jobs(&self) -> usize {
        self.jobs
    }
}
