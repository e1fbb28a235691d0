"""Tiny-scale tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.baselines import HotRecommender
from repro.data import ActionType, UserAction
from repro.serving.gateway import GatewayConfig, ServingGateway
from repro.serving.router import RequestRouter

from perfbench import checks, compare, fixtures
from perfbench.client import HttpClient, Request
from perfbench.measure import percentile, root_self_share, with_self_times
from perfbench.probe import NOMINAL_S, HostSpeed, SpeedProbe
from perfbench.workloads import DurableState, BlockRun

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def _run(workload: str, trace: int, seed: int = 3) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    code, lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], lines[-8:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    if trace:
        assert 0 <= result["metrics"]["trace.unattributed_share"]["value"] <= 1
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_the_same_inputs():
    scale = fixtures.SCALES["tiny"]
    _, a = fixtures.stream_slice(5, scale, 50)
    _, b = fixtures.stream_slice(5, scale, 50)
    _, c = fixtures.stream_slice(6, scale, 50)
    assert len(a) == 50 and list(map(repr, a)) == list(map(repr, b))
    assert list(map(repr, a)) != list(map(repr, c))


class _StubRecommender:
    def __init__(self, lists):
        self.lists = lists

    def recommend_ids(self, user, current_video=None, n=10, now=None):
        return self.lists(user)


def _probe(lists):
    """Problems an in-process read chunk finds in the stub's lists."""
    run = BlockRun(_StubRecommender(lists), {"v1", "v2", "v3"}, seed=0)
    actions = [UserAction(1.0, "u1", "v1", ActionType.CLICK)]
    run.wrote(actions, [0.001], 0.001)
    run.read(20, 2.0)
    problems = run.problems + checks.check_lengths(run.lengths, 2, "reads")
    return run.attempted, problems


def test_checks_reject_duplicate_ids():
    attempted, problems = _probe(lambda user: ["v2", "v2"])
    assert attempted and any("duplicate" in p for p in problems)


def test_checks_reject_already_watched_ids():
    attempted, problems = _probe(lambda user: ["v1", "v2"])
    assert attempted and any("already watched" in p for p in problems)


def test_checks_accept_a_valid_list():
    attempted, problems = _probe(lambda user: ["v2", "v3"])
    assert attempted and problems == []


def test_checks_reject_empty_lists():
    attempted, problems = _probe(lambda user: [])
    assert attempted and any("lists average" in p for p in problems)
    assert any("empty" in p for p in problems)


class _Broken:
    def recommend_ids(self, user, current_video=None, n=10, now=None):
        raise RuntimeError("primary down")


def test_fallback_answers_are_failed_and_fail_the_checks():
    """A primary that raises on every request gets 200s from the
    fallback; the client must see them as degraded, not as served."""
    router = RequestRouter(_Broken(), fallback=HotRecommender())
    gateway = ServingGateway(router, config=GatewayConfig())
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def serve():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(gateway.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    started.wait(10)
    try:
        client = HttpClient("127.0.0.1", gateway.port, 1)
        reqs = client.open_loop([
            Request("rec", "/recommend", {"user_id": "u1", "n": 3, "timestamp": 1.0})
        ])
        client.close()
    finally:
        asyncio.run_coroutine_threadsafe(gateway.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
    assert not thread.is_alive()
    (req,) = reqs
    assert req.status == 200 and req.degraded and not req.ok
    problems = checks.check_http_recommendations(
        reqs, fixtures.HistoryReplica(), {"v1"}, 3
    )
    assert any("fallback" in p for p in problems)


def test_watched_set_tolerates_concurrent_ingests():
    replica = fixtures.HistoryReplica()
    for i in range(fixtures.HISTORY_MAX):
        replica.apply(UserAction(float(i), "u", f"v{i}", ActionType.CLICK))
    assert "v0" in replica.certainly_watched("u")
    # An ingest in flight may push the oldest video out of the history.
    assert "v0" not in replica.certainly_watched("u", unsettled=1)


def test_recovery_check_rejects_a_recovery_that_drops_wal_actions(tmp_path):
    world, actions = fixtures.stream_slice(2, fixtures.SCALES["tiny"], 120)
    state = DurableState(world, tmp_path, None)
    for action in actions[:80]:
        state.rec.observe(action)
    info = state.recovery.checkpoint(state.cache, incremental=True)
    for action in actions[80:]:
        state.rec.observe(action)
    logged = state.wal.last_seq - info.wal_seq
    state.close()

    fresh = DurableState(world, tmp_path, None)
    replay = fresh.wal.replay

    def lossy_replay(after_seq=0):
        records = list(replay(after_seq))
        return iter(records[:-1])

    fresh.wal.replay = lossy_replay
    report = fresh.recovery.recover(fresh.cache, fresh.rec.observe)
    fresh.close()
    same = {"u": ["a"]}
    problems = checks.check_recovery(same, same, report.replayed, logged)
    assert problems and "replayed" in problems[0]
    assert checks.check_recovery(same, same, 3, 3) == []
    assert checks.check_recovery(same, {"u": ["b"]}, 3, 3)
    assert checks.check_recovery({"u": []}, {"u": []}, 3, 3)


def test_percentile_is_nearest_rank_over_every_sample():
    samples = list(range(1, 70_001))
    assert percentile(samples, 50) == 35_000
    assert percentile(samples, 99) == 69_300
    assert percentile([3.0], 99) == 3.0


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        (1, 0, 1, "root", 0.0, 10.0, None),
        (2, 1, 1, "a", 1.0, 4.0, None),
        (3, 2, 1, "a.kv", 2.0, 3.0, None),
        (4, 1, 1, "b", 5.0, 9.0, None),
    ]
    own = {span[3]: t for span, t in with_self_times(spans)}
    assert own == {"root": 3.0, "a": 2.0, "a.kv": 1.0, "b": 4.0}
    assert root_self_share(spans) == 0.3
    assert checks.check_nesting(spans) == []


def test_nesting_check_rejects_a_span_that_escapes_its_parent():
    spans = [
        (1, 0, 1, "root", 0.0, 10.0, None),
        (2, 1, 1, "a", 1.0, 4.0, None),
        (3, 2, 1, "a.kv", 3.0, 5.0, None),  # ends after its parent
    ]
    assert checks.check_nesting(spans)


def test_compare_refuses_different_fingerprints(tmp_path):
    def save(name, nproc):
        stamp = {"fingerprint": {"nproc": nproc}, "workload": "w",
                 "seconds": 1, "scale": "tiny"}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
        path = tmp_path / name
        path.write_text(json.dumps({"stamp": stamp}) + "\n" + json.dumps(result))
        return str(path)

    assert compare.main([save("a", 2), "--against", save("b", 2)]) == 0
    assert compare.main([save("c", 2), "--against", save("d", 8)]) == 2


class _FixedProbe:
    def __init__(self, times):
        self.times = iter(times)

    def seconds(self):
        return next(self.times)


def test_host_speed_is_the_mean_probe_time_around_a_block():
    speed = HostSpeed(_FixedProbe([NOMINAL_S, 3 * NOMINAL_S, NOMINAL_S]))
    speed.start()
    assert speed.block() == 2.0
    assert speed.block() == 2.0
    assert speed.summary() == {"min": 2.0, "median": 2.0, "max": 2.0}
    assert HostSpeed(None).block() == 1.0


def test_speed_probe_answers_and_stops_on_close():
    probe = SpeedProbe(sorted(os.sched_getaffinity(0))[-1])
    try:
        assert 0 < probe.seconds() < 1
    finally:
        probe.close()
    assert probe.proc.returncode == 0
