//! Count determinism: two traced runs of the same workload, seed and
//! operation count give identical layer counts; another seed changes the
//! generated inputs. `oneshot` runs without the CLI here, so only its
//! in-process replay (the source of its counts) is exercised.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use costar_perfbench::{run, Config, Counts, Stop};
use std::path::PathBuf;

fn counts(workload: &str, seed: u64, ops: u64) -> (Counts, u64) {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{seed}"));
    let cfg = Config {
        workload: workload.to_owned(),
        seed,
        stop: Stop::Ops(ops),
        trace: true,
        work_dir: work_dir.clone(),
        costar_bin: None,
        setup_reps: 1,
    };
    let outcome = run(&cfg).expect("run succeeds");
    let _ = std::fs::remove_dir_all(&work_dir);
    let traced = outcome.traced.expect("traced phase");
    assert_eq!(
        traced.failed, 0,
        "{workload}: an operation failed its checks"
    );
    (outcome.ctx.counts, outcome.input_digest)
}

fn check(workload: &str, ops: u64) -> Counts {
    let (a, da) = counts(workload, 7, ops);
    let (b, db) = counts(workload, 7, ops);
    assert_eq!(a, b, "{workload}: counts differ between identical runs");
    assert_eq!(da, db, "{workload}: inputs differ between identical runs");
    let (_, dc) = counts(workload, 8, ops);
    assert_ne!(da, dc, "{workload}: another seed left the inputs unchanged");
    assert!(a.parses > 0 && a.parse_tokens > 0 && a.decisions > 0);
    assert!(a.machine_steps > 0 && a.cache_lookups > 0);
    a
}

#[test]
fn corpus_counts_repeat() {
    let c = check("corpus", 24);
    assert!(c.tokens_lexed > 0 && c.tree_nodes > 0);
}

#[test]
fn editor_counts_repeat() {
    // Forty edits give every document its break-then-fix pair.
    let c = check("editor", 40);
    assert!(c.tokens_reused > 0 && c.tokens_relexed > 0);
    assert!(c.session_reused > 0 && c.recoveries > 0);
}

#[test]
fn oneshot_counts_repeat() {
    let c = check("oneshot", 32);
    assert!(c.render_bytes > 0 && c.analysis_lookups > 0 && c.analysis_hits > 0);
}

#[test]
fn batch_counts_repeat() {
    let c = check("batch", 4);
    assert!(c.tree_nodes > 0);
}
