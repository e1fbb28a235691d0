"""Compare two sets of saved benchmark outputs, metric by metric.

Usage::

    python3 perfbench/compare.py BASE_OUTPUT... --against NEW_OUTPUT...

Each file is the full standard output of one ``perfbench/run.py`` run.
Runs are compared only when every file carries the same machine
fingerprint and workload; otherwise the comparison is refused (exit 2).
For each metric the medians of both sides are printed with the relative
change, and end-to-end metrics that worsen by more than their bound in
``BENCHMARK.json`` are flagged (exit 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> tuple[dict, dict]:
    """The stamp and the result line of one saved run."""
    lines = Path(path).read_text().strip().splitlines()
    stamp = next(json.loads(l)["stamp"] for l in lines if l.startswith('{"stamp"'))
    return stamp, json.loads(lines[-1])


def comparable(stamps: list[dict]) -> str | None:
    """Why these runs cannot be compared, or ``None`` if they can."""
    first = stamps[0]
    for stamp in stamps[1:]:
        if stamp["fingerprint"] != first["fingerprint"]:
            return f"fingerprints differ: {first['fingerprint']} vs {stamp['fingerprint']}"
        for key in ("workload", "seconds", "scale"):
            if stamp[key] != first[key]:
                return f"{key} differs: {first[key]} vs {stamp[key]}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--against", nargs="+", required=True)
    args = parser.parse_args(argv)
    base = [load(p) for p in args.base]
    new = [load(p) for p in args.against]
    reason = comparable([s for s, _ in base + new])
    if reason is not None:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    if not all(r["correct"] for _, r in base + new):
        print("refusing to compare: a run failed its output checks", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for name in base[0][1]["metrics"]:
        before = statistics.median(r["metrics"][name]["value"] for _, r in base)
        after = statistics.median(r["metrics"][name]["value"] for _, r in new)
        change = (after - before) / before if before else 0.0
        flag = ""
        if name in bounds:
            sign = 1 if bounds[name]["better"] == "lower" else -1
            if sign * change > bounds[name]["bound"]:
                flag = "  WORSE than bound"
                worse += 1
        unit = base[0][1]["metrics"][name]["unit"]
        print(f"{name:<44} {before:>12.4f} -> {after:>12.4f} {unit:<8} {change:+.3f}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
