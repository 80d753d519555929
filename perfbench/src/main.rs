//! `perfbench --workload W --seed N --seconds S --trace 0|1
//! [--costar-bin PATH] [--work-dir DIR] [--spans-out FILE] [--commit C]`
//!
//! Prints a report headed by the host and provenance, then, as the last
//! line, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `run.py` builds this binary and the `costar` CLI first.

use costar_perfbench::report::{end_to_end, json_line, per_layer, skipped};
use costar_perfbench::{host, run, Config, Stop, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    cfg: Config,
    seconds: u64,
    spans_out: Option<PathBuf>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut costar_bin = None;
    let mut work_dir = None;
    let mut spans_out = None;
    let mut commit = "unknown".to_owned();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--costar-bin" => costar_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?.max(1);
    if workload == "oneshot" && costar_bin.is_none() {
        return Err("oneshot needs --costar-bin".into());
    }
    Ok(Args {
        cfg: Config {
            workload,
            seed: seed.ok_or("--seed is required")?,
            stop: Stop::Time(Duration::from_secs(seconds)),
            trace: trace.ok_or("--trace is required")?,
            work_dir: work_dir.unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-work")),
            costar_bin,
            setup_reps: 9,
        },
        seconds,
        spans_out,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    let result = run(cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let outcome = match result {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        args.seconds,
        u8::from(cfg.trace)
    );
    println!(
        "# host nproc={} available_parallelism={} profile={} commit={}",
        host::nproc(),
        host::available_parallelism(),
        host::profile(),
        args.commit
    );
    let reps: Vec<String> = outcome
        .setup_secs
        .iter()
        .map(|s| format!("{s:.4}"))
        .collect();
    println!("# set-up repetitions (s): {}", reps.join(" "));
    let (phase, metrics) = if cfg.trace {
        let traced = outcome.traced.as_ref().expect("traced phase ran");
        if let Some(path) = &args.spans_out {
            if let Err(e) = std::fs::write(path, outcome.ctx.tracer.to_tsv()) {
                eprintln!("perfbench: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("# spans written to {}", path.display());
        }
        for name in skipped(&outcome) {
            println!("# {name}: skipped (one worker: no parallel speed-up to measure)");
        }
        (traced, per_layer(&outcome, traced))
    } else {
        let phase = outcome.untraced.as_ref().expect("untraced phase ran");
        (phase, end_to_end(&outcome, phase))
    };
    for m in &metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "# {:<36} {:>16.6} {:<6} n={}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let attempted = phase.lat_ns.len() as u64;
    println!("{}", json_line(attempted, phase.failed, &metrics));
    if phase.failed > 0 {
        eprintln!(
            "perfbench: {} of {attempted} operations failed their checks",
            phase.failed
        );
    }
    ExitCode::SUCCESS
}
