"""Measurement primitives: percentiles, fingerprints, spans and self time.

Everything here runs from outside the program: spans are recorded by
wrappers the benchmark installs around public methods and around a
:class:`~repro.kvstore.KVStore` it passes in as ``store=``.  Percentiles are
computed by nearest rank over every sample a run took.
"""

from __future__ import annotations

import itertools
import math
import os
import platform
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.kvstore import KVStore

ROOT = Path(__file__).resolve().parent.parent

now = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes
#: CPUs this process may use, read before a run pins itself to one.
CPUS = sorted(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of every sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def mean(samples: Iterable[float]) -> float:
    values = list(samples)
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    status = Path(f"/proc/{pid or os.getpid()}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def placement() -> dict[str, list[int]]:
    """CPUs of the load client and of the program under test.

    With two CPUs or more each gets its own, so the client's work never
    lands in the program's latency; with one they share it.  Pinned, a
    process is not moved between CPUs mid-run, which on a small virtual
    machine costs more, and varies more from run to run, than the work
    being timed.
    """
    return {"client": [CPUS[0]], "program": [CPUS[-1]]}


def fingerprint() -> dict[str, Any]:
    """What must match for two runs to be comparable."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "placement": placement(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_stamp(workload: str, seed: int, seconds: int, scale: str) -> dict:
    """The fingerprint plus the run's own inputs and commit."""
    return {
        "fingerprint": fingerprint(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
    }


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans with a per-thread parent stack.

    A span is ``(span_id, parent_id, root_id, name, start, end, attrs)``;
    spans of one root share ``root_id``.  Recording is off until
    :attr:`enabled` is set, so wrappers can stay installed across an
    untraced phase at the cost of one attribute read.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent, root = stack[-1] if stack else (0, span_id)
        stack.append((span_id, root))
        return (span_id, parent, root, name, now())

    def end(self, token: tuple, attrs: dict | None = None) -> None:
        ended = now()
        self._stack().pop()
        self.spans.append((*token, ended, attrs))

    def timed(
        self,
        name: str,
        fn: Callable,
        measure: Callable[[tuple, dict, Any], dict] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span named ``name`` while recording is on.

        ``measure(args, kwargs, result)`` may attach counts to the span.
        """

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            token = self.begin(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    attrs = measure(args, kwargs, result)
                return result
            finally:
                self.end(token, attrs)

        return wrapper

    def drain(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


class Instrumenter:
    """Installs span wrappers as instance attributes and removes them.

    Removing the instance attribute restores the class's method, so an
    untraced phase runs the program exactly as it is.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._installed: list[tuple[object, str]] = []

    def wrap(self, obj: object, attr: str, name: str, measure=None) -> None:
        if obj is None:
            return
        original = getattr(obj, attr)
        setattr(obj, attr, self.recorder.timed(name, original, measure))
        self._installed.append((obj, attr))

    def unwrap_all(self) -> None:
        for obj, attr in reversed(self._installed):
            delattr(obj, attr)
        self._installed.clear()


def _count_result(args, kwargs, result) -> dict:
    return {"n": len(result)}


def _count_arg(index: int):
    def measure(args, kwargs, result) -> dict:
        return {"n": len(args[index])}

    return measure


def instrument_recommender(inst: Instrumenter, rec) -> None:
    """Span the public calls of each layer a request or action crosses."""
    inst.wrap(rec, "recommend", "recommender.recommend")
    inst.wrap(rec, "observe", "recommender.observe")
    inst.wrap(rec.history, "snapshot", "history.snapshot")
    inst.wrap(rec.history, "recent", "history.recent")
    inst.wrap(rec.history, "record", "history.record")
    inst.wrap(rec.selector, "select", "candidates.select", _count_result)
    inst.wrap(rec.table, "neighbors_many", "simtable.neighbors_many")
    inst.wrap(rec.table, "offer_pair", "simtable.offer_pair")
    inst.wrap(rec.model, "predict_many", "mf.predict_many", _count_arg(1))
    inst.wrap(rec.model, "user_vector", "mf.user_vector")
    inst.wrap(rec.model, "video_vectors_many", "mf.video_vectors_many")
    inst.wrap(rec.trainer, "process", "online.process", _update_flag)
    inst.wrap(rec.index, "query_user", "annindex.query", _count_result)
    inst.wrap(rec.index, "query_item", "annindex.query", _count_result)
    inst.wrap(rec.index, "upsert", "annindex.upsert")
    inst.wrap(rec.demographic, "recommend_filtered",
              "demographic.recommend_filtered")
    inst.wrap(rec.demographic, "record", "demographic.record")
    inst.wrap(rec.trainer.wal, "append", "wal.append")


def _update_flag(args, kwargs, result) -> dict:
    return {"updated": result is not None}


class TimingKVStore(KVStore):
    """A pass-through :class:`KVStore` that spans the data operations.

    The recommender is handed this store as ``store=``; ``inner`` is the
    attribute the program's wrapper-chain walkers follow, so checkpoints
    and recovery still find the durable tier underneath.
    """

    def __init__(self, inner: KVStore, recorder: SpanRecorder) -> None:
        self.inner = inner
        self._get = recorder.timed("kvstore.get", inner.get)
        self._mget = recorder.timed("kvstore.mget", inner.mget)
        self._put = recorder.timed("kvstore.put", inner.put)
        self._mput = recorder.timed("kvstore.mput", inner.mput)
        self._update = recorder.timed("kvstore.update", inner.update)

    def get(self, key, default=None):
        return self._get(key, default)

    def mget(self, keys, default=None):
        return self._mget(keys, default)

    def put(self, key, value, ttl=None):
        return self._put(key, value, ttl=ttl)

    def mput(self, items, ttl=None):
        return self._mput(items, ttl=ttl)

    def update(self, key, fn, default=None):
        return self._update(key, fn, default)

    def get_strict(self, key):
        return self.inner.get_strict(key)

    def delete(self, key):
        return self.inner.delete(key)

    def compare_and_set(self, key, value, expected_version):
        return self.inner.compare_and_set(key, value, expected_version)

    def version(self, key):
        return self.inner.version(key)

    def __contains__(self, key):
        return key in self.inner

    def __len__(self):
        return len(self.inner)

    def keys(self):
        return self.inner.keys()

    def snapshot_entries(self):
        return self.inner.snapshot_entries()

    def restore_entries(self, entries):
        return self.inner.restore_entries(entries)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def _covered(start: float, end: float, children: list[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of child spans."""
    total = 0.0
    cursor = start
    for _, _, _, _, c_start, c_end, _ in sorted(children, key=lambda s: s[4]):
        lo, hi = max(c_start, cursor), min(c_end, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def with_self_times(spans: list[tuple]) -> list[tuple[tuple, float]]:
    """Each span paired with its self time: duration minus child cover."""
    children: dict[int, list[tuple]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    out = []
    for span in spans:
        start, end = span[4], span[5]
        out.append(
            (span, (end - start) - _covered(start, end, children.get(span[0], [])))
        )
    return out


def root_self_share(spans: list[tuple]) -> float:
    """Median, over span trees, of the root's self time over its duration:
    the share of a traced operation that no layer span below it explains."""
    shares = [
        own / (span[5] - span[4])
        for span, own in with_self_times(spans)
        if span[1] == 0 and span[5] > span[4]
    ]
    return percentile(shares, 50) if shares else 0.0


class LayerTable:
    """Per-span-name durations, self times and attached counts."""

    def __init__(self, spans: list[tuple]) -> None:
        self.duration: dict[str, list[float]] = {}
        self.self_time: dict[str, list[float]] = {}
        self.attrs: dict[str, list[dict]] = {}
        for span, self_seconds in with_self_times(spans):
            name = span[3]
            self.duration.setdefault(name, []).append(span[5] - span[4])
            self.self_time.setdefault(name, []).append(self_seconds)
            if span[6]:
                self.attrs.setdefault(name, []).append(span[6])

    def calls(self, name: str) -> int:
        return len(self.duration.get(name, ()))

    def p50_ms(self, name: str, self_only: bool = False) -> float:
        values = (self.self_time if self_only else self.duration).get(name)
        return percentile(values, 50) * 1e3 if values else 0.0

    def total_ms(self, name: str) -> float:
        return sum(self.duration.get(name, ())) * 1e3

    def attr_mean(self, name: str, key: str) -> float:
        return mean(a[key] for a in self.attrs.get(name, ()) if key in a)
