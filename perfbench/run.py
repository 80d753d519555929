#!/usr/bin/env python3
"""Build and run the CoStar pipeline benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Builds, in release mode, the benchmark binary (``perfbench/``, a Cargo
workspace of its own) and the ``costar`` CLI, then runs the benchmark.
Build output goes to stderr; the report goes to stdout and ends with one
JSON line. ``CARGO_TARGET_DIR`` defaults to ``.bench_build`` at the root.
Exits non-zero, without a result, when anything cannot be built.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("corpus", "editor", "oneshot", "batch")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env):
    """Builds both binaries; returns their paths or None on failure."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "costar-cli"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return None
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    bins = (os.path.join(release, "perfbench"), os.path.join(release, "costar"))
    return bins if all(os.path.isfile(b) for b in bins) else None


def commit():
    """The git commit of the checkout, if it is a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    bins = build(env)
    if bins is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    bench, costar = bins

    scratch = os.path.join(env["CARGO_TARGET_DIR"], "perfbench-work")
    work = os.path.join(scratch, "%s-%d" % (args.workload, os.getpid()))
    spans = os.path.join(scratch, "spans-%s-seed%d.tsv" % (args.workload, args.seed % (1 << 64)))
    os.makedirs(scratch, exist_ok=True)
    seed = args.seed % (1 << 64)
    cmd = [bench, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--costar-bin", costar, "--work-dir", work, "--commit", commit()]
    if args.trace:
        cmd += ["--spans-out", spans]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
