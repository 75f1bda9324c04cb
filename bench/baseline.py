#!/usr/bin/env python3
"""Run every workload over ten seeds and write ``bench/baseline.json``.

    python3 bench/baseline.py

For each workload: ten untraced runs (seeds 1..10) of ``run_seconds`` from
``BENCHMARK.json``, each end-to-end metric's median, quartiles and spread
(quartile distance over median, as ``statistics.quantiles(values, n=4)``
gives them), and one traced run's per-layer metrics.  Also records the ``src/`` line count, an informational
figure that no bound applies to.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    out = {"python": platform.python_version(), "numpy": np.__version__,
           "cpus": os.cpu_count(), "run_seconds": seconds,
           "src_lines": src_lines, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [one_run(name, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
        traced = one_run(name, 1, seconds, 1)
        out["workloads"][name] = {
            "why": w["why"],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": {
                m["name"]: dict(summary([r["metrics"][m["name"]]["value"]
                                         for r in runs]), unit=m["unit"],
                                bound=m["bound"])
                for m in spec["end_to_end"]},
            "per_layer_seed_1": traced["metrics"],
        }
        for m, s in out["workloads"][name]["end_to_end"].items():
            print(f"{name:10s} {m:12s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound={s['bound']}", file=sys.stderr)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
