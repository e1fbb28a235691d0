"""The three workloads.  Each returns a :class:`Outcome` of raw figures.

``serve_table`` and ``serve_ann`` drive the HTTP server in its own process
(:mod:`perfbench.server`) from one single-threaded client over at most
``nproc`` keep-alive connections.  ``ingest_durable`` runs the write
path in this process and then times back-to-back reads of the state the
writes built, so every workload reports both read and write figures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import RealtimeRecommender
from repro.clock import SystemClock
from repro.data.stream import ENGAGEMENT_ACTIONS
from repro.kvstore import DurableKVStore, ReadThroughCache
from repro.obs import Observability
from repro.reliability import ActionWAL, CheckpointManager, RecoveryManager

from . import checks, fixtures
from .client import HttpClient, Request, get_json
from .measure import (
    ROOT,
    Instrumenter,
    LayerTable,
    SpanRecorder,
    TimingKVStore,
    instrument_recommender,
    now,
    peak_rss_mb,
    percentile,
    placement,
    root_self_share,
)
from .probe import HostSpeed, SpeedProbe

TOP_N = 10
SETUP_REPEATS = 3
IN_PROCESS_SETUP_REPEATS = 5
#: Workloads whose program runs in the benchmark's own process.
IN_PROCESS = ("ingest_durable",)
#: Latency limit a read must meet to count towards capacity.
LATENCY_LIMIT_S = {"serve_table": 0.050, "serve_ann": 0.100}
DEFAULT_LIMIT_S = 0.050
#: Open-loop offered rate (req/s) and request mix.  A mix is a cycle of
#: requests run in an order the seed shuffles.  serve_table's cycle of
#: five holds two guess-you-like reads, two related-videos reads and one
#: ingest; serve_ann's reads arrive at 28 reads/s, about a third of their
#: closed-loop capacity at the commit that defined the benchmark.  Its
#: ingest share is not taken from the paper: two ingests per pair of
#: reads give its ingest_p50_ms about 180 samples a run.  The in-process
#: reads alternate the two read scenarios.
OFFERED_RATE = {"serve_table": 100.0, "serve_ann": 56.0}
CYCLES = {
    "serve_table": ("gyl", "related", "gyl", "related", "ingest"),
    "serve_ann": ("gyl", "related", "ingest", "ingest"),
}
#: Shares of --seconds, split evenly over the rounds: the mixed open
#: loop and the closed loop of reads.  Each round then runs its share of
#: a fixed number of closed-loop ingests.
OPEN_SHARE = 0.65
CLOSED_SHARE = 0.25
INGEST_PHASE_PER_S = 150  # ingests in the write phase, per --seconds
#: Warm-up before anything is timed: ingests first, so the bounded
#: demographic hot lists are full (serve_ann's start empty, and a list
#: at its bound evicts on every insert), then mixed requests.
WARMUP_INGESTS = 600
WARMUP = 40
KV_OPS = ("get", "mget", "put", "mput", "update")
#: The timed part of a serving run is cut into this many rounds, each a
#: slice of the open loop, of the closed loop of reads and of the closed
#: loop of ingests, so every figure spans the whole run; the speed probe
#: runs between slices.  An in-process run is cut into this many write
#: chunks, each followed by a block of reads.
ROUNDS = 12
IN_PROCESS_BLOCKS = 30
#: Share of an in-process run's action slice applied before any timing,
#: so the timed writes and reads see a state whose size barely changes.
WARMUP_SHARE = 1 / 3


@dataclass
class Outcome:
    """What one run measured and what its checks found."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def _scratch_dir() -> Path:
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def _ms(values: list[float], q: float) -> float:
    return percentile(values, q) * 1e3


def _median(values: list[float]) -> float:
    return float(np.median(values))


def _chunks(items: list, count: int) -> list[list]:
    """``items`` (in time order) as ``count`` contiguous runs."""
    n = len(items)
    return [items[i * n // count:(i + 1) * n // count] for i in range(count)]


def _good_rate(reqs: list[Request], start: float, limit: float | None) -> float:
    """Good completions per second of a closed loop begun at ``start``.

    A completion is good when it is OK and (with ``limit``) within it;
    the loop ends with its last completion.
    """
    good = sum(r.ok and (limit is None or r.latency <= limit) for r in reqs)
    return good / (max(r.done for r in reqs) - start)


# ----------------------------------------------------------------------
# Per-layer table from spans
# ----------------------------------------------------------------------


def layer_metrics(spans: list[tuple], extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer figure the spans support; ``extra`` adds the rest.

    Layers a workload bypasses read 0.
    """
    t = LayerTable(spans)
    process = t.attrs.get("online.process", [])
    out = {
        "recommender.recommend.ms_p50": t.p50_ms("recommender.recommend"),
        "recommender.self_ms_p50": t.p50_ms("recommender.recommend", True),
        "history.snapshot.ms_p50": t.p50_ms("history.snapshot"),
        "history.record.ms_total": t.total_ms("history.record"),
        "candidates.select.self_ms_p50": t.p50_ms("candidates.select", True),
        "candidates.select.candidates_mean": t.attr_mean("candidates.select", "n"),
        "simtable.neighbors_many.ms_p50": t.p50_ms("simtable.neighbors_many"),
        "simtable.offer_pair.calls": t.calls("simtable.offer_pair"),
        "simtable.offer_pair.ms_total": t.total_ms("simtable.offer_pair"),
        "annindex.query.ms_p50": t.p50_ms("annindex.query"),
        "annindex.shortlist_mean": t.attr_mean("annindex.query", "n"),
        "mf.predict_many.ms_p50": t.p50_ms("mf.predict_many"),
        "mf.predict_many.rows_mean": t.attr_mean("mf.predict_many", "n"),
        "online.process.ms_p50": t.p50_ms("online.process"),
        "online.process.ms_total": t.total_ms("online.process"),
        "online.update_ratio": (
            sum(a["updated"] for a in process) / len(process) if process else 0.0
        ),
        "demographic.recommend_filtered.ms_p50": t.p50_ms(
            "demographic.recommend_filtered"
        ),
        "demographic.record.ms_total": t.total_ms("demographic.record"),
        "wal.append.ms_total": t.total_ms("wal.append"),
        "router.self_ms_p50": t.p50_ms("router.handle_many", True),
    }
    for op in KV_OPS:
        out[f"kvstore.{op}.calls"] = t.calls(f"kvstore.{op}")
        out[f"kvstore.{op}.ms_total"] = t.total_ms(f"kvstore.{op}")
    defaults = {
        "client.late_ms_p99": 0.0,
        "client.queue_wait_ms_p50": 0.0,
        "gateway.self_ms_p50": 0.0,
        "gateway.batch_size_mean": 0.0,
        "gateway.batches": 0,
        "router.degraded": 0,
        "router.shed": 0,
        "router.errors": 0,
        "recommender.recall_at_10": 0.0,
        "annindex.rebuild_s": 0.0,
        "annindex.recall_at_100": 0.0,
        "kvstore.cache_hit_ratio": 0.0,
        "kvstore.durable.bytes_written": 0,
        "kvstore.durable.compactions": 0,
        "wal.bytes": 0,
        "checkpoint.create_s": 0.0,
        "checkpoint.restore_s": 0.0,
        "recovery.replay_s": 0.0,
        "recovery.replayed": 0,
        "recovery.total_s": 0.0,
        "trace.overhead_ms_p50": 0.0,
        "trace.unattributed_share": 0.0,
    }
    return {**out, **defaults, **extra}


# ----------------------------------------------------------------------
# Serving workloads (HTTP, server in its own process)
# ----------------------------------------------------------------------


class ServerProcess:
    """One launcher process; stops it (and waits) on :meth:`close`."""

    def __init__(self, workload: str, scale: str, trace: int) -> None:
        self.started = now()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "server.py"),
             "--workload", workload, "--scale", scale, "--trace", str(trace),
             "--cpu", str(placement()["program"][0])],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        self.hello = self._read()
        self.port = self.hello["port"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.proc.wait()}")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def wait_healthy(self, timeout: float = 120.0) -> float:
        """Seconds from spawn to the first healthy ``/healthz``."""
        while True:
            status, _ = get_json("127.0.0.1", self.port, "/healthz")
            if status == 200:
                return now() - self.started
            if now() - self.started > timeout:
                raise RuntimeError("server never became healthy")

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Traffic:
    """The seeded request stream of a serving workload.

    Ingests replay a slice of the world's action stream in timestamp
    order, impressions included.  Reads pick a user at random; a
    related-videos read watches a video drawn uniformly from the
    catalogue.
    """

    def __init__(self, workload: str, seed: int, scale: fixtures.Scale,
                 needed_actions: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.replica = fixtures.HistoryReplica()
        if workload == "serve_table":
            world = fixtures.table_world(scale)
            train, rest = fixtures.split_day7(world.generate_actions())
            for action in train:
                self.replica.apply(action)
            self.users = sorted(self.replica.recent)
            self.video_list = sorted(world.videos)
        else:
            rest = fixtures.ann_stream(scale)
            self.users = [f"w{i:05d}" for i in range(scale.ann_warm_users)]
            self.video_list = [f"v{i:07d}" for i in range(scale.ann_videos)]
        self.catalogue = set(self.video_list)
        self.actions = fixtures.slice_of(rest, seed, needed_actions)
        self.next_action = 0
        self.clock = fixtures.DAY7
        self.count = 0
        self.mix = CYCLES[workload]
        self.cycle: list[str] = []

    def ingest(self) -> Request | None:
        if self.next_action >= len(self.actions):
            return None
        action = self.actions[self.next_action]
        self.next_action += 1
        self.clock = max(self.clock, action.timestamp)
        return Request(
            "ingest", "/ingest", fixtures.action_doc(action),
            meta={"action": action},
        )

    def recommend(self, related: bool) -> Request:
        self.count += 1
        user = self.users[int(self.rng.integers(len(self.users)))]
        # Unique per request: spans in the server are matched on it.
        doc = {"user_id": user, "n": TOP_N,
               "timestamp": self.clock + self.count * 1e-7}
        if related:
            doc["current_video"] = self.video_list[
                int(self.rng.integers(len(self.video_list)))
            ]
        return Request("rec", "/recommend", doc)

    def make(self, ingests: bool = True) -> Request:
        if not self.cycle:
            self.cycle = [self.mix[i] for i in self.rng.permutation(len(self.mix))]
        kind = self.cycle.pop()
        if kind == "ingest":
            req = self.ingest() if ingests else None
            if req is not None:
                return req
            kind = "related" if self.count % 2 else "gyl"
        return self.recommend(kind == "related")

    def schedule(self, start: float, count: int, interval: float) -> list[Request]:
        out = []
        for i in range(count):
            req = self.make()
            req.due = start + i * interval
            out.append(req)
        return out

    def recommendations(self):
        while True:
            yield self.make(ingests=False)

    def ingests(self, count: int):
        for _ in range(count):
            req = self.ingest()
            if req is None:
                return
            yield req


def _engaged(req: Request) -> bool:
    return req.meta["action"].action in ENGAGEMENT_ACTIONS


def serve(workload: str, seed: int, seconds: int, trace: bool, scale: str) -> Outcome:
    """Rounds of an open loop of mixed traffic, a closed loop of reads
    and a closed loop of ingests, each slice adjusted for the host's
    speed (:mod:`perfbench.probe`).

    The open loop offers its fixed rate in nominal-speed time: each
    round's gap between requests is stretched by the slowdown probed just
    before it, so the server's utilisation, and with it the queueing in
    its latency, does not move with the host's speed.

    The traced run replaces the rounds with two open loops, the second
    under spans; the first one is its untraced baseline.
    """
    sc = fixtures.SCALES[scale]
    out = Outcome()
    rate = OFFERED_RATE[workload]
    open_s = seconds * OPEN_SHARE / ROUNDS
    closed_s = seconds * CLOSED_SHARE / ROUNDS
    ingests_per_round = INGEST_PHASE_PER_S * seconds // ROUNDS
    needed = (
        WARMUP_INGESTS + WARMUP
        + int(rate * seconds * CYCLES[workload].count("ingest") / len(CYCLES[workload]))
        + ingests_per_round * ROUNDS
    )
    setups = []
    server = None
    probe = SpeedProbe(placement()["program"][0])
    speed = HostSpeed(probe)
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.close()
            speed.start()
            server = ServerProcess(workload, scale, int(trace))
            setups.append(server.wait_healthy() / speed.block())
        traffic = Traffic(workload, seed, sc, needed)
        quality = server.command("quality")
        client = HttpClient("127.0.0.1", server.port, os.cpu_count() or 2)
        try:
            warm = client.closed_loop(traffic.ingests(WARMUP_INGESTS))
            warm += client.open_loop(
                [_at(traffic.make(), now()) for _ in range(WARMUP)]
            )
            if not trace:
                open_reqs, rec_reqs, ingest_reqs = [], [], []
                rec_ms, ingest_ms, rec_rates, ingest_rates = [], [], [], []
                speed.start()
                for _ in range(ROUNDS):
                    reqs = client.open_loop(traffic.schedule(
                        now() + 0.05, int(open_s * rate), speed.current() / rate
                    ))
                    slow = speed.block()
                    rec_ms += [r.latency / slow for r in reqs if r.kind == "rec"]
                    ingest_ms += [
                        r.latency / slow for r in reqs
                        if r.kind == "ingest" and _engaged(r)
                    ]
                    open_reqs += reqs
                    start = now()
                    reqs = client.closed_loop(
                        traffic.recommendations(), start + closed_s
                    )
                    rec_rates.append(
                        _good_rate(reqs, start, LATENCY_LIMIT_S[workload])
                        * speed.block()
                    )
                    rec_reqs += reqs
                    start = now()
                    reqs = client.closed_loop(traffic.ingests(ingests_per_round))
                    ingest_rates.append(_good_rate(reqs, start, None) * speed.block())
                    ingest_reqs += reqs
                phases = {"warm-up": warm, "open loop": open_reqs,
                          "closed reads": rec_reqs, "closed ingests": ingest_reqs}
            else:
                half = int(seconds * rate / 2)
                speed.start()
                untraced = client.open_loop(
                    traffic.schedule(now() + 0.05, half, speed.current() / rate)
                )
                server.command("trace on")
                speed.start()
                traced = client.open_loop(
                    traffic.schedule(now() + 0.05, half, speed.current() / rate)
                )
                server.command("trace off")
                spans = [tuple(s) for s in server.command("spans")["spans"]]
                phases = {"warm-up": warm, "untraced": untraced, "traced": traced}
        finally:
            client.close()
        snapshot = get_json("127.0.0.1", server.port, "/snapshot")[1]
        rss = peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.close()
        probe.close()

    everything = [r for phase in phases.values() for r in phase]
    out.attempted = len(everything)
    out.failed = sum(1 for r in everything if not r.ok)
    out.problems += checks.check_http_recommendations(
        everything, traffic.replica, traffic.catalogue, TOP_N
    )
    for name, reqs in phases.items():
        lengths = [len(r.payload["video_ids"]) for r in reqs if r.kind == "rec" and r.ok]
        if lengths:
            out.problems += checks.check_lengths(lengths, TOP_N, name)
    out.problems += checks.check_quality(quality)
    out.info["setups_s"] = setups
    out.info["host_slowdown"] = speed.summary()
    if not trace:
        out.end_to_end = _figures(
            setups, rec_ms, rec_rates, ingest_ms, ingest_rates, rss
        )
        out.info["tails"] = _tails(rec_ms, ingest_ms)
        out.info["samples"] = {
            "rec_closed": len(rec_reqs),
            "ingest_closed": len(ingest_reqs),
        }
        return out

    untraced, traced = phases["untraced"], phases["traced"]
    router = snapshot["router"]
    coalescing = snapshot["coalescing"]
    trees = _client_trees(traced, spans)
    out.problems += checks.check_nesting(trees)
    extra = {
        "client.late_ms_p99": _ms([r.noticed - r.due for r in traced], 99),
        "client.queue_wait_ms_p50": _ms([r.sent - r.noticed for r in traced], 50),
        "gateway.self_ms_p50": _gateway_self_ms_p50(traced, spans),
        "gateway.batch_size_mean": coalescing["mean_batch_size"],
        "gateway.batches": coalescing["batches"],
        "router.degraded": sum(s["fallbacks"] for s in router.values()),
        "router.shed": sum(s["shed"] for s in router.values()),
        "router.errors": sum(s["errors"] for s in router.values()),
        "recommender.recall_at_10": quality.get("recall_at_10", 0.0),
        "annindex.recall_at_100": quality.get("ann_recall_at_100", 0.0),
        "annindex.rebuild_s": server.hello.get("rebuild_s", 0.0),
        "trace.overhead_ms_p50": _ms([r.latency for r in traced if r.kind == "rec"], 50)
        - _ms([r.latency for r in untraced if r.kind == "rec"], 50),
        "trace.unattributed_share": root_self_share(trees),
    }
    out.per_layer = layer_metrics(spans, extra)
    return out


def _at(req: Request, due: float) -> Request:
    req.due = due
    return req


def _batches(spans: list[tuple]) -> dict[str, tuple]:
    """Request key -> the ``handle_many`` span that served it."""
    out = {}
    for span in spans:
        if span[3] == "router.handle_many" and span[6]:
            for key in span[6]["keys"]:
                out[key] = span
    return out


def _gateway_self_ms_p50(traced: list[Request], spans: list[tuple]) -> float:
    """Client-seen service time minus the time inside ``handle_many``."""
    batches = _batches(spans)
    gaps = []
    for req in traced:
        span = batches.get(repr(req.doc.get("timestamp")))
        if req.kind == "rec" and span is not None:
            gaps.append((req.done - req.sent) - (span[5] - span[4]))
    return _ms(gaps, 50) if gaps else 0.0


def _client_trees(traced: list[Request], spans: list[tuple]) -> list[tuple]:
    """Each traced read as a client span (send to response) over the
    server's span tree that served it, one tree per read.

    Client and server read the same monotonic clock, so a server span
    outside its client span shows a timing or matching fault.
    """
    batches = _batches(spans)
    by_root: dict[int, list[tuple]] = {}
    for span in spans:
        by_root.setdefault(span[2], []).append(span)
    out: list[tuple] = []
    for k, req in enumerate(traced, 1):
        batch = batches.get(repr(req.doc.get("timestamp")))
        if req.kind != "rec" or batch is None:
            continue
        root = -k * 10**9
        out.append((root, 0, root, "client", req.sent, req.done, None))
        for s in by_root[batch[2]]:
            # Ids are offset per tree: one batch may serve two reads.
            parent = root if s[0] == batch[0] else root - s[1]
            out.append((root - s[0], parent, root, *s[3:]))
    return out


def _figures(
    setups: list[float],
    rec_s: list[float],
    rec_rates: list[float],
    ingest_s: list[float],
    ingest_rates: list[float],
    rss: float,
) -> dict[str, float]:
    """The end-to-end metrics: medians of the set-ups, of every latency
    sample and of the per-block rates, all adjusted for the host's speed."""
    return {
        "setup_s": _median(setups),
        "rec_p50_ms": _ms(rec_s, 50),
        "rec_capacity_rps": _median(rec_rates),
        "ingest_p50_ms": _ms(ingest_s, 50),
        "ingest_actions_per_s": _median(ingest_rates),
        "peak_rss_mb": rss,
    }


def _tails(reads: list[float], writes: list[float]) -> dict[str, float]:
    """p90 latencies over every sample, with the sample counts.

    Printed with each run but not among the gated metrics: on a shared
    2-CPU host their spread across seeds exceeded every allowed bound.
    """
    return {
        "rec_p90_ms": _ms(reads, 90),
        "rec_samples": len(reads),
        "ingest_p90_ms": _ms(writes, 90),
        "ingest_samples": len(writes),
    }


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


class BlockRun:
    """Chunks of timed writes, each followed by a block of back-to-back
    timed reads of the state the writes built so far.

    Reads alternate guess-you-like and related-videos (the user's latest
    video) for users the seed picks; a block's lists are checked after
    its timing ends.  The speed probe runs between chunks and blocks, and
    every time and rate is adjusted by the slowdown around its chunk or
    block.  In a traced run every other chunk and block is traced, so the
    untraced ones give the tracing overhead.
    """

    def __init__(self, rec, catalogue: set[str], seed: int,
                 speed: HostSpeed | None = None) -> None:
        self.rec = rec
        self.lengths: list[int] = []
        self.catalogue = catalogue
        self.rng = np.random.default_rng(seed)
        self.replica = fixtures.HistoryReplica()
        self.speed = speed or HostSpeed(None)
        self.write_rates: list[float] = []
        self.write_s: list[float] = []  # engagement writes only
        self.read_rates: list[float] = []
        self.read_s: list[float] = []
        self.read_p50_ms: list[tuple[bool, float]] = []  # (traced, p50) per block
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def warmed(self, actions) -> None:
        """Account for actions applied before the timing starts."""
        self.attempted += len(actions)
        for action in actions:
            self.replica.apply(action)

    def write(self, actions) -> None:
        """Time ``observe`` of each action of one chunk."""
        latencies = []
        began = now()
        for action in actions:
            started = now()
            self.rec.observe(action)
            latencies.append(now() - started)
        wall = now() - began
        self.wrote(actions, latencies, wall, self.speed.block())

    def wrote(self, actions, latencies: list[float], wall: float,
              slow: float = 1.0) -> None:
        """Record one chunk of writes: every action's latency, and the
        chunk's wall time, with the host slowdown around the chunk."""
        self.write_rates.append(len(actions) / wall * slow)
        self.write_s += [
            t / slow for a, t in zip(actions, latencies)
            if a.action in ENGAGEMENT_ACTIONS
        ]
        self.attempted += len(actions)
        for action in actions:
            self.replica.apply(action)

    def read(self, count: int, now_ts: float, traced: bool = False) -> None:
        users = sorted(self.replica.recent)
        picks = [
            (users[int(self.rng.integers(len(users)))], i % 2 == 1)
            for i in range(count)
        ]
        served, times = [], []
        began = now()
        for user, related in picks:
            current = self.replica.recent[user][0] if related else None
            started = now()
            try:
                ids = self.rec.recommend_ids(
                    user, current_video=current, n=TOP_N, now=now_ts
                )
            except Exception as exc:  # noqa: BLE001 - counted as a failed read
                self.failed += 1
                self.problems.append(f"recommend raised {type(exc).__name__}: {exc}")
                continue
            times.append(now() - started)
            served.append((user, current, ids))
        wall = now() - began
        slow = self.speed.block()
        self.attempted += count
        if times:
            adjusted = [t / slow for t in times]
            self.read_p50_ms.append((traced, _ms(adjusted, 50)))
            self.read_rates.append(sum(t <= DEFAULT_LIMIT_S for t in times) / wall * slow)
            self.read_s += adjusted
        for user, current, ids in served:
            self.problems += checks.check_list(
                user, current, ids, self.replica.certainly_watched(user),
                self.catalogue, TOP_N,
            )
            self.lengths.append(len(ids))

    def read_ms(self, traced: bool) -> list[float]:
        """Per-block p50 read latencies of the traced or untraced blocks."""
        return [p50 for was, p50 in self.read_p50_ms if was == traced]


class DurableState:
    """The ``repro-serve --data-dir`` write path over one data directory."""

    def __init__(self, world, root: Path, recorder: SpanRecorder | None) -> None:
        self.obs = Observability.create()
        self.durable = DurableKVStore(
            root / "kv", fsync="interval", registry=self.obs.registry
        )
        self.cache = ReadThroughCache(self.durable, capacity=4096)
        self.wal = ActionWAL(root / "wal")
        self.recovery = RecoveryManager(
            CheckpointManager(root / "ckpt", fsync=True), self.wal
        )
        store = self.cache if recorder is None else TimingKVStore(self.cache, recorder)
        self.rec = RealtimeRecommender(
            world.videos,
            users=world.users,
            config=fixtures.config(),
            clock=SystemClock(),
            obs=self.obs,
            store=store,
            wal=self.wal,
        )

    def close(self) -> None:
        self.wal.close()
        self.durable.close()


def ingest_durable(seed: int, seconds: int, trace: bool, scale: str) -> Outcome:
    """Chunks of ``observe`` on the durable tier, reads between them, one
    incremental checkpoint at two thirds, then close and recover."""
    sc = fixtures.SCALES[scale]
    out = Outcome()
    recorder = SpanRecorder() if trace else None
    probe = SpeedProbe(placement()["program"][0])
    speed = HostSpeed(probe)
    try:
        scratch = _scratch_dir()
    except OSError:
        probe.close()
        raise
    try:
        setups = []
        repeats = 1 if trace else IN_PROCESS_SETUP_REPEATS
        for i in range(repeats):
            speed.start()
            started = now()
            world, actions = fixtures.stream_slice(
                seed, sc, sc.durable_actions_per_s * seconds
            )
            root = scratch / f"data{i}"
            state = DurableState(world, root, recorder)
            setups.append((now() - started) / speed.block())
            if i + 1 < repeats:
                state.close()
                shutil.rmtree(root)
        run = BlockRun(state.rec, set(world.videos), seed, speed)
        inst = Instrumenter(recorder) if trace else None
        if trace:
            instrument_recommender(inst, state.rec)
        warm = int(len(actions) * WARMUP_SHARE)
        for action in actions[:warm]:
            state.rec.observe(action)
        run.warmed(actions[:warm])
        count = min(IN_PROCESS_BLOCKS, len(actions) - warm)
        checkpoint_after = (2 * count) // 3
        checkpoint_s = 0.0
        reads = sc.durable_reads_per_s * seconds // count
        last_ts = actions[-1].timestamp + 1.0
        for block, chunk in enumerate(_chunks(actions[warm:], count)):
            if block == checkpoint_after:
                started = now()
                state.recovery.checkpoint(state.cache, incremental=True)
                checkpoint_s = now() - started
            traced = trace and block % 2 == 0
            if recorder is not None:
                recorder.enabled = traced
            speed.start()
            run.write(chunk)
            run.read(reads, chunk[-1].timestamp + 1.0, traced)
        if recorder is not None:
            recorder.enabled = False
        if trace:
            inst.unwrap_all()
            spans = recorder.drain()
            hits, misses = state.cache.hits, state.cache.misses

        sample = sorted(run.replica.recent)[: sc.quality_users]
        before = {u: state.rec.recommend_ids(u, n=TOP_N, now=last_ts) for u in sample}
        wal_records = state.wal.last_seq
        state.close()
        bytes_written = sum(p.stat().st_size for p in (root / "kv").iterdir())
        bytes_written += _counter(
            state.obs, "durable_kv_compaction_reclaimed_bytes_total"
        )
        compactions = _counter(state.obs, "durable_kv_compactions_total")
        wal_bytes = sum(p.stat().st_size for p in state.wal.segments())

        # Recover into a fresh recommender over the same data directory,
        # the way repro-serve --data-dir boots.
        started = now()
        fresh = DurableState(world, root, None)
        restore_s = []
        restore_latest = fresh.recovery.checkpoints.restore_latest

        def timed_restore(store):
            began = now()
            try:
                return restore_latest(store)
            finally:
                restore_s.append(now() - began)

        fresh.recovery.checkpoints.restore_latest = timed_restore
        report = fresh.recovery.recover(fresh.cache, fresh.rec.observe)
        replay_s = now() - started - sum(restore_s)
        if report.checkpoint is not None:
            # Demographic hot lists live in memory: rebuild them from the
            # WAL prefix the checkpoint covers.
            for seq, action in fresh.wal.replay():
                if seq > report.checkpoint.wal_seq:
                    break
                fresh.rec.observe_demographic(action)
        after = {u: fresh.rec.recommend_ids(u, n=TOP_N, now=last_ts) for u in sample}
        recovery_s = now() - started
        fresh.close()
        out.problems += checks.check_recovery(
            before, after, report.replayed,
            wal_records - (report.checkpoint.wal_seq if report.checkpoint else 0),
        )
        rss = peak_rss_mb()
    finally:
        probe.close()
        shutil.rmtree(scratch, ignore_errors=True)

    out.attempted = run.attempted
    out.failed = run.failed
    out.problems += run.problems[:5]
    out.problems += checks.check_lengths(run.lengths, TOP_N, "reads")
    out.info["host_slowdown"] = speed.summary()
    if not trace:
        out.end_to_end = _figures(
            setups, run.read_s, run.read_rates, run.write_s, run.write_rates, rss
        )
        out.info["setups_s"] = setups
        out.info["tails"] = _tails(run.read_s, run.write_s)
        out.info["recovery"] = {
            "total_s": recovery_s,
            "replayed": report.replayed,
            "stale_checkpoint": report.stale_checkpoint,
        }
        return out
    out.problems += checks.check_nesting(spans)
    extra = {
        "kvstore.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "kvstore.durable.bytes_written": bytes_written,
        "kvstore.durable.compactions": compactions,
        "wal.bytes": wal_bytes,
        "checkpoint.create_s": checkpoint_s,
        "checkpoint.restore_s": sum(restore_s),
        "recovery.replay_s": replay_s,
        "recovery.replayed": report.replayed,
        "recovery.total_s": recovery_s,
        "trace.overhead_ms_p50": _median(run.read_ms(True))
        - _median(run.read_ms(False)),
        "trace.unattributed_share": root_self_share(
            [s for s in spans if s[3] == "recommender.recommend" or s[1]]
        ),
    }
    out.per_layer = layer_metrics(spans, extra)
    return out


def _counter(obs: Observability, name: str) -> float:
    metric = obs.registry.get(name)
    return metric.value if metric is not None else 0.0


WORKLOADS = {
    "serve_table": lambda *a: serve("serve_table", *a),
    "serve_ann": lambda *a: serve("serve_ann", *a),
    "ingest_durable": ingest_durable,
}
