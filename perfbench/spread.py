#!/usr/bin/env python3
"""Run every workload once per seed 1-10 and report each metric's spread across runs.

    python3 perfbench/spread.py --out spread.json
    python3 perfbench/spread.py --baseline spread.json

Each run is ``run.py --trace 0`` for BENCHMARK.json's run_seconds.  For every
workload and metric it prints the median of the per-run values and the
distance between their first and third quartiles as a share of that median,
next to the metric's bound.  With --baseline (an earlier --out file) it also
prints how far each median moved against the baseline's, and marks a move that
is worse than the bound allows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="JSON summary to write")
    parser.add_argument("--baseline", type=Path, help="earlier --out file to compare medians with")
    args = parser.parse_args()
    baseline = json.loads(args.baseline.read_text()) if args.baseline else {}
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    summary = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        per_metric = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            per_metric[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                                "spread": spread, "values": values}
            bound = metrics[name]["bound"]
            flag = "" if spread < bound / 3 else "  > bound/3"
            print(f"  {name:34s} median {median:12.6g} {first['unit']:5s} spread "
                  f"{spread:.3f} (bound {bound}){flag}")
            old = baseline.get(workload, {}).get("metrics", {}).get(name)
            if old:
                change = (median - old["median"]) / old["median"]
                worse = change if metrics[name]["better"] == "lower" else -change
                verdict = "  WORSE THAN BOUND" if worse > bound else ""
                print(f"  {'':34s} vs baseline {old['median']:.6g}: {change:+.3f}{verdict}")
        summary[workload] = {
            "seeds": list(SEEDS),
            "all_correct": all(r["correct"] for r in runs),
            "metrics": per_metric,
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
