"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_table --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs with layer spans and prints the per-layer metrics.
Earlier output lines carry the run's stamp (machine fingerprint, commit,
seed, scale) and a readable table; the last line is the result::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

A run whose output checks fail prints ``correct: false`` with no metrics
and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="full", help="input scale: full, or tiny for tests"
    )
    args = parser.parse_args(argv)
    try:
        from perfbench.measure import placement, run_stamp
        from perfbench.workloads import IN_PROCESS, WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    # This process is the load client of a serving workload, and the
    # program itself otherwise (see measure.placement).
    cpus = placement()
    os.sched_setaffinity(
        0, cpus["program" if args.workload in IN_PROCESS else "client"]
    )
    stamp = run_stamp(args.workload, args.seed, args.seconds, args.scale)
    print(json.dumps({"stamp": stamp}), flush=True)
    outcome = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), args.scale
    )
    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = outcome.per_layer if args.trace else outcome.end_to_end
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    if outcome.info:
        print(json.dumps({"info": outcome.info}), flush=True)
    if outcome.problems:
        for problem in outcome.problems:
            print(f"CHECK FAILED: {problem}", flush=True)
        print(json.dumps({
            "correct": False,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {},
        }))
        return 1
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>14.4f} {metric['unit']}")
    print(f"{'failed_share':<44} {outcome.failed / max(1, outcome.attempted):>14.4f}"
          " fraction")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
