#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced with
--tiny and a one-second timed phase. Passes when every run exits 0,
every output check passed, and each result line carries exactly the
end-to-end (untraced) or per-layer (traced) metrics of BENCHMARK.json,
each with its declared unit and a finite value.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            name = f"{w['name']} --trace {trace}"
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w["name"],
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                problems.append(f"{name}: exit {out.returncode}\n{out.stdout}{out.stderr}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name}: checks failed\n{out.stdout}")
            got = result["metrics"]
            if sorted(got) != sorted(m["name"] for m in wanted[trace]):
                problems.append(f"{name}: metrics {sorted(got)}")
                continue
            for m in wanted[trace]:
                v = got[m["name"]]
                if v["unit"] != m["unit"] or not math.isfinite(v["value"]):
                    problems.append(f"{name}: {m['name']} = {v}")
            print(f"ok  {name}: {len(got)} metrics", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
