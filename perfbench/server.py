"""Launcher of the HTTP server under test for the serving workloads.

Builds the served state, wires ``ServingGateway`` over ``RequestRouter``
the way ``repro-serve`` does (``GatewayConfig()`` defaults, a circuit
breaker, the hot-videos fallback, no admission rate), binds an ephemeral
port and prints ``{"port": ...}`` on stdout.  It then takes one command
per stdin line and answers each with one JSON line:

* ``quality`` — the served state's recall against its oracle;
* ``trace on`` / ``trace off`` — install or remove the layer spans;
* ``spans`` — the spans recorded since the last call;
* ``quit`` (or end of input) — stop serving and exit.

Run: ``python3 perfbench/server.py --workload serve_table --scale full``;
``--cpu N`` pins the process (and so every thread it starts) to CPU ``N``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import RealtimeRecommender  # noqa: E402
from repro.baselines import HotRecommender  # noqa: E402
from repro.clock import SystemClock  # noqa: E402
from repro.core import top_n_by_score  # noqa: E402
from repro.eval import recall_at_n, retrieval_recall  # noqa: E402
from repro.kvstore import InMemoryKVStore  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.reliability.overload import CircuitBreaker  # noqa: E402
from repro.serving.gateway import GatewayConfig, ServingGateway  # noqa: E402
from repro.serving.router import RequestRouter  # noqa: E402

from perfbench import fixtures  # noqa: E402
from perfbench.measure import (  # noqa: E402
    Instrumenter,
    SpanRecorder,
    TimingKVStore,
    instrument_recommender,
    now,
)


def build(workload: str, scale: fixtures.Scale, traced: bool):
    """The served recommender, its quality oracle and the build report."""
    recorder = SpanRecorder()
    store = TimingKVStore(InMemoryKVStore(), recorder) if traced else None
    obs = Observability.create()
    fallback = HotRecommender()
    report: dict = {}
    if workload == "serve_table":
        world = fixtures.table_world(scale)
        train, day7 = fixtures.split_day7(world.generate_actions(days=7))
        rec = RealtimeRecommender(
            world.videos,
            users=world.users,
            config=fixtures.config("table"),
            clock=SystemClock(),
            obs=obs,
            store=store,
        )
        rec.observe_stream(train)
        for action in train:
            fallback.observe(action)

        def quality() -> dict:
            liked = world.genuinely_liked(day7)
            recs = {
                user: rec.recommend_ids(user, n=10, now=fixtures.DAY7)
                for user in sorted(liked)
            }
            return {"recall_at_10": recall_at_n(recs, liked, 10)}

    else:
        videos, ids, vectors, biases, users = fixtures.ann_catalog(scale)
        rec = RealtimeRecommender(
            videos,
            users={},
            config=fixtures.config("ann"),
            clock=SystemClock(),
            obs=obs,
            store=store,
        )
        rec.model.put_params_many(
            [("video", vid, vectors[i], float(biases[i])) for i, vid in enumerate(ids)]
            + [("user", uid, vec, 0.0) for uid, vec in users.items()]
        )
        started = now()
        rec.rebuild_index()
        report["rebuild_s"] = now() - started

        def quality() -> dict:
            sample = sorted(users)[: scale.ann_recall_users]
            recalls = []
            for uid in sample:
                exact = top_n_by_score(ids, vectors @ users[uid] + biases, 100)
                served = rec.recommend_ids(uid, n=100, now=fixtures.DAY7)
                recalls.append(
                    retrieval_recall(served, [vid for vid, _ in exact], 100)
                )
            return {"ann_recall_at_100": sum(recalls) / len(recalls)}

    breaker = CircuitBreaker(name="primary", registry=obs.registry)
    router = RequestRouter(rec, fallback=fallback, breaker=breaker, obs=obs)
    gateway = ServingGateway(
        router,
        config=GatewayConfig(),
        # Looked up per call so a traced phase sees the wrapped observe.
        observe=lambda action: rec.observe(action),
        obs=obs,
        breaker=breaker,
    )
    return gateway, rec, router, recorder, quality, report


def _request_keys(args, kwargs, result) -> dict:
    return {"keys": [repr(r.timestamp) for r in args[0]]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("serve_table", "serve_ann"))
    parser.add_argument("--scale", choices=sorted(fixtures.SCALES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    gateway, rec, router, recorder, quality, report = build(
        args.workload, fixtures.SCALES[args.scale], bool(args.trace)
    )
    inst = Instrumenter(recorder)
    out_lock = threading.Lock()

    def reply(doc: dict) -> None:
        with out_lock:
            sys.stdout.write(json.dumps(doc) + "\n")
            sys.stdout.flush()

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        await gateway.start()
        reply({"port": gateway.port, **report})

        def control() -> None:
            for line in sys.stdin:
                command = line.strip()
                if command == "quality":
                    reply(quality())
                elif command == "trace on":
                    instrument_recommender(inst, rec)
                    inst.wrap(router, "handle_many", "router.handle_many",
                              _request_keys)
                    recorder.enabled = True
                    reply({"trace": True})
                elif command == "trace off":
                    recorder.enabled = False
                    inst.unwrap_all()
                    reply({"trace": False})
                elif command == "spans":
                    reply({"spans": recorder.drain()})
                elif command == "quit":
                    break
            loop.call_soon_threadsafe(stop.set)

        thread = threading.Thread(target=control, daemon=True)
        thread.start()
        try:
            await stop.wait()
        finally:
            await gateway.stop()

    asyncio.run(serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
