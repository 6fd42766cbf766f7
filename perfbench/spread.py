#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--seconds S] [workload ...]

Runs each workload untraced on seeds 1..runs. For every end-to-end
metric: the median of its per-run values, and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of that
median, next to the metric's bound from BENCHMARK.json.
Defaults: every workload of BENCHMARK.json, 10 runs, its run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output checks failed:\n{out.stdout}")
    return result["metrics"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("workloads", nargs="*")
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = a.workloads or [w["name"] for w in spec["workloads"]]
    for w in names:
        runs = [one_run(w, seed, a.seconds) for seed in range(1, a.runs + 1)]
        for metric in runs[0]:
            vals = [r[metric]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[metric]
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"{w:18} {metric:28} median {med:<14.6g} spread {spread:7.2%}"
                  f"  bound {bound}  {flag}", flush=True)


if __name__ == "__main__":
    main()
