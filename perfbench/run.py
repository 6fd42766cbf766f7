#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is a Rust package of its
own (perfbench/Cargo.toml) that builds against the repository's crates by
path; it is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR (default: .bench_build). The workload's run record goes
to stdout, ending with one JSON result line, and is also written under
perfbench/runs/. Exits non-zero, printing no result, when the build or
the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

# Longest a single run may take, build excluded.
RUN_TIMEOUT_S = 170
# Longest the build may take; only the first run in a checkout builds.
BUILD_TIMEOUT_S = 700


def main():
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(bench_dir / "Cargo.toml")],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    rev = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass

    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:],
           "--out-dir", str(bench_dir / "runs"), "--rev", rev]
    try:
        run = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
