"""Host-speed probe: a fixed piece of work, timed next to each measured block.

On a shared virtual machine the speed of a CPU moves by up to 2x within
seconds and by 1.5x between runs a minute apart (other tenants' load),
which moves every timing the benchmark takes.  The probe runs the same
small mix of the program's kinds of work — dict and string operations, a
sort, JSON, pickling (as the durable store does), and small numpy gathers
and matrix-vector products — in a process of its own pinned to the
program's CPU, while the program is idle between blocks.  A block's
slowdown is the probe's time around it over :data:`NOMINAL_S`; the
benchmark divides the block's times (and multiplies its rates) by that
slowdown, so figures read as they would on the host at nominal speed.

The probe process runs no program code, so a change to the program does
not move the probe; the adjustment cancels only what slows the probe and
the program alike.

Run: ``python3 perfbench/probe.py --cpu N``; each stdin line ``k`` is
answered with the median seconds of ``k`` runs of the work.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Time of one :func:`work` in the faster phases of the 2-vCPU x86-64
#: virtual machine the benchmark was sized on (a run's median slowdown
#: there was 1.0-1.5).  Only a scale: figures read as if the host ran the
#: probe in this time.
NOMINAL_S = 0.0033
#: Runs of the work per measurement; their median is the measurement.
REPS = 5

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((4000, 32))
_TABLE = _RNG.standard_normal((60_000, 32))
_ROWS = _RNG.integers(0, len(_TABLE), size=600)
_ENTRIES = {f"u{i:05d}": (i, [0.5] * 16, f"v{i:07d}") for i in range(60)}


def work() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    counts: dict[str, float] = {}
    for i in range(2500):
        key = f"v{(i * 7919) % 500:05d}"
        counts[key] = counts.get(key, 0.0) + i * 0.5
    ranked = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)[:50]
    doc = json.loads(json.dumps({"ids": [k for k, _ in ranked],
                                 "scores": [s for _, s in ranked]}))
    total = float(len(doc["ids"]))
    for _ in range(4):
        total += len(pickle.loads(pickle.dumps(_ENTRIES)))
    for j in range(6):
        scores = _MATRIX @ _MATRIX[j]
        total += float(scores[np.argpartition(scores, -50)[-50:]].sum())
        gathered = _TABLE[_ROWS[j * 100:(j + 1) * 100]]
        total += float((gathered @ _MATRIX[j]).sum())
    return total


def measure(reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        work()
        times.append(time.perf_counter() - started)
    return sorted(times)[len(times) // 2]


class SpeedProbe:
    """The probe process pinned to ``cpu``; :meth:`close` stops it."""

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--cpu", str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("speed probe did not start")

    def seconds(self) -> float:
        """The probe's time for one unit of work, now."""
        self.proc.stdin.write(f"{REPS}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("speed probe exited")
        return float(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def slowdown(before: float, after: float) -> float:
    """Host slowdown over a block, from the probe times around it."""
    return (before + after) / 2 / NOMINAL_S


class HostSpeed:
    """Slowdowns of consecutive blocks, probed between them.

    :meth:`start` probes before the first block (and again after any
    untimed work); :meth:`block` probes after a block and returns its
    slowdown.  Without a probe every slowdown is 1.
    """

    def __init__(self, probe: SpeedProbe | None) -> None:
        self.probe = probe
        self.mark = 0.0
        self.slowdowns: list[float] = []

    def start(self) -> None:
        if self.probe is not None:
            self.mark = self.probe.seconds()

    def block(self) -> float:
        if self.probe is None:
            return 1.0
        after = self.probe.seconds()
        factor = slowdown(self.mark, after)
        self.mark = after
        self.slowdowns.append(factor)
        return factor

    def current(self) -> float:
        """The slowdown the latest probe measured (1 without a probe)."""
        return self.mark / NOMINAL_S if self.probe is not None else 1.0

    def summary(self) -> dict[str, float]:
        ordered = sorted(self.slowdowns) or [1.0]
        return {"min": ordered[0], "median": ordered[len(ordered) // 2],
                "max": ordered[-1]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    measure(20)  # warm caches and the allocator
    print("ready", flush=True)
    for line in sys.stdin:
        print(repr(measure(int(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
