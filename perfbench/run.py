"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload rpc-thread --seed 1 --seconds 25 \
        --trace 0

Run it from the root of a checkout: the program under test is the
``src/repro`` next to this directory, imported from source, never an
installed copy.  Without it the command fails (exit 2) and prints no
result.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload twice for half the seconds each, first
untraced and then with the span wrappers of :mod:`spans` installed, and
prints every per-layer metric plus the tracing overhead.  The last line
of standard output is always the one JSON result object.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"


def _import_program():
    """Import ``repro`` from this checkout's ``src`` or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _workloads():
    import serving
    import synth

    return {
        "rpc-thread": serving.rpc_thread,
        "stream-sessions": serving.stream_sessions,
        "ingest-process": serving.ingest_process,
        "synth-suite": synth.synth_suite,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    import common
    import spans

    spec = _spec()
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads)}")
    run = workloads[args.workload]
    cpus = sorted(os.sched_getaffinity(0))  # before any pinning
    steal_before = common.steal_ticks()

    if not args.trace:
        tally, e2e, _rollouts = run(args.seconds, args.seed)
        e2e["rss_mb"] = common.peak_rss_mb()
        wanted = spec["end_to_end"]
        values = e2e
    else:
        half = args.seconds / 2
        plain, e2e, _ = run(half, args.seed)
        tracer = spans.Tracer()
        patches = spans.install(tracer)
        try:
            tally, traced, rollouts = run(half, args.seed)
        finally:
            patches.undo()
        tally.absorb(plain)
        values = spans.layer_metrics(
            tracer, requests=tally.attempted - plain.attempted,
            rollouts=rollouts)
        values["trace.overhead_pct"] = (
            100.0 * (e2e["ops_per_s"] / traced["ops_per_s"] - 1.0))
        for name in sorted(e2e):
            print(f"trace overhead: {name} untraced {e2e[name]:.6g} "
                  f"traced {traced[name]:.6g}")
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.export(str(path))
        print(f"spans: {len(tracer.spans)} written to {path}")
        wanted = spec["per_layer"]

    common.stop_resource_tracker()
    steal_after = common.steal_ticks()
    record = {
        "host": common.host_record(cpus),
        "pinned_cpu": tally.pinned_cpu,
        "steal_ticks": (None if steal_before is None or steal_after is None
                        else steal_after - steal_before),
        "workload": args.workload,
        "seed": args.seed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unchecked_mid_rollout": tally.unchecked,
        "host_slowdown": tally.slowdown,
        "failures": tally.reasons,
    }
    print("record: " + json.dumps(record, sort_keys=True))
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        value = float(values[name])
        print(f"{name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
