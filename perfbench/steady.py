"""Steadiness check: run workloads N times and report each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workload rpc-thread ...] \
        [--first-seed 1] [--seconds 25] [--trace 0]

Each run is ``perfbench/run.py`` in a fresh process with its own seed
(``first-seed``, ``first-seed + 1``, ...).  Per workload and metric it
prints the median, the interquartile range (IQR) as a share of the
median, and the largest distance of a single run from the median, both
also as a share of the metric's bound in ``BENCHMARK.json``.  A metric
is steady when its IQR share stays well inside its bound; these
figures are what the bounds are set from.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--raw", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end"] + spec["per_layer"]}

    for workload in workloads:
        results = [
            _run(workload, args.first_seed + i, args.seconds, args.trace)
            for i in range(args.runs)
        ]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"correct {all(r['correct'] for r in results)}, "
              f"failed/attempted {sorted(shares)}")
        print(f"{'metric':28} {'median':>12} {'IQR/med':>8} "
              f"{'bound':>6} {'IQR/bnd':>8} {'maxdev/bnd':>10}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            iqr = (q3 - q1) / mid if mid else 0.0
            dev = max(abs(v - mid) for v in values) / mid if mid else 0.0
            bound = bounds.get(name)
            if bound:
                rel = f"{iqr / bound:8.2f} {dev / bound:10.2f}"
                shown = f"{bound:6.2f}"
            else:
                rel = f"{'-':>8} {'-':>10}"
                shown = f"{'-':>6}"
            print(f"{name:28} {mid:12.6g} {iqr:8.3f} {shown} {rel}")
            if args.raw:
                print("    " + " ".join(f"{v:.4g}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
