"""Output checks.  Each returns a list of problems; empty means correct."""

from __future__ import annotations

from .client import Request
from .fixtures import HistoryReplica

#: Floors the served state's quality must clear.  Random top-10 lists on
#: the paper world score well under 0.01; the two-stage ANN path scores
#: about 0.8 against brute force at the commit that defined the benchmark.
MIN_RECALL_AT_10 = 0.02
MIN_ANN_RECALL_AT_100 = 0.5
#: How far a phase's mean list length may fall short of ``n``.
#: ``recommend_filtered`` drops blocked videos without topping up, so some
#: related-videos lists come back short: on the paper world after day-6
#: training, 7% of them, as short as 4 ids, mean 9.86 of 10; on the state
#: an ingest_durable slice builds, mean 9.9.
MAX_MEAN_SHORTFALL = 1.0
#: Slack allowed when checking that a child span lies inside its parent.
NEST_SLACK_S = 1e-6


def check_list(
    user: str,
    current: str | None,
    ids: list[str],
    watched: set[str],
    catalogue: set[str],
    n: int,
) -> list[str]:
    """One top-N list: at most ``n`` distinct catalogue ids, none watched.

    How short lists may be is a property of a phase's lists together
    (:func:`check_lengths`).
    """
    problems = []
    where = f"user {user}" + (f" watching {current}" if current else "")
    if len(ids) > n:
        problems.append(f"{where}: {len(ids)} ids, asked for {n}")
    if len(set(ids)) != len(ids):
        problems.append(f"{where}: duplicate ids {ids}")
    unknown = [v for v in ids if v not in catalogue]
    if unknown:
        problems.append(f"{where}: ids outside the catalogue {unknown[:3]}")
    seen = [v for v in ids if v in watched]
    if seen:
        problems.append(f"{where}: already watched {seen[:3]}")
    if current is not None and current in ids:
        problems.append(f"{where}: recommended the current video")
    return problems


def check_lengths(lengths: list[int], n: int, phase: str) -> list[str]:
    """A phase's lists average at least ``n - MAX_MEAN_SHORTFALL`` ids,
    and none is empty."""
    if not lengths:
        return [f"{phase}: no list was served"]
    problems = []
    mean = sum(lengths) / len(lengths)
    if mean < n - MAX_MEAN_SHORTFALL:
        problems.append(f"{phase}: lists average {mean:.2f} ids, asked for {n}")
    empty = sum(1 for k in lengths if k == 0)
    if empty:
        problems.append(f"{phase}: {empty} of {len(lengths)} lists are empty")
    return problems


def check_http_recommendations(
    requests: list[Request],
    replica: HistoryReplica,
    catalogue: set[str],
    n: int,
) -> list[str]:
    """Every ``/recommend`` response, against the history it could see.

    An answer from the fallback (``X-Repro-Degraded``) is a problem: the
    path under test did not serve it.  A user's ingests are sent one at a time, so they reached the server
    in send order.  An ingest finished before a request was sent is
    certainly in the history it read; one in flight while the request was
    may or may not be, and may have evicted the oldest entry.
    """
    replica = replica.copy()
    ingests = sorted(
        (r for r in requests if r.kind == "ingest" and r.ok), key=lambda r: r.sent
    )
    by_user: dict[str, list[Request]] = {}
    for ing in ingests:
        by_user.setdefault(ing.doc["user_id"], []).append(ing)
    problems: list[str] = []
    degraded = sum(1 for r in requests if r.degraded)
    if degraded:
        problems.append(f"{degraded} answers came from the fallback")
    applied = 0
    for req in sorted((r for r in requests if r.kind == "rec"), key=lambda r: r.sent):
        while applied < len(ingests) and ingests[applied].done <= req.sent:
            replica.apply(ingests[applied].meta["action"])
            applied += 1
        if not req.ok:
            continue
        user = req.doc["user_id"]
        unsettled = sum(
            1 for ing in by_user.get(user, ())
            if ing.sent < req.done and ing.done > req.sent
        )
        problems += check_list(
            user,
            req.doc.get("current_video"),
            list((req.payload or {}).get("video_ids", [])),
            replica.certainly_watched(user, unsettled),
            catalogue,
            n,
        )
        if len(problems) >= 5:
            break
    return problems


def check_quality(quality: dict) -> list[str]:
    problems = []
    recall = quality.get("recall_at_10")
    if recall is not None and not MIN_RECALL_AT_10 <= recall <= 1.0:
        problems.append(f"recall_at_10 {recall} outside [{MIN_RECALL_AT_10}, 1]")
    ann = quality.get("ann_recall_at_100")
    if ann is not None and not MIN_ANN_RECALL_AT_100 <= ann <= 1.0:
        problems.append(
            f"ann_recall_at_100 {ann} outside [{MIN_ANN_RECALL_AT_100}, 1]"
        )
    return problems


def check_recovery(
    before: dict[str, list[str]],
    after: dict[str, list[str]],
    replayed: int,
    logged_after_checkpoint: int,
) -> list[str]:
    """Recovered state serves what the closed state served, and recovery
    replayed exactly the WAL suffix after the checkpoint it restored (all
    of the WAL when compaction had made that checkpoint stale).  Neither
    side may serve an empty list."""
    problems = []
    empty = [u for u in before if not before[u] or not after.get(u)]
    if empty or not before:
        problems.append(f"empty top-N around recovery for {empty[:3] or 'all'}")
    if replayed != logged_after_checkpoint:
        problems.append(
            f"recovery replayed {replayed} actions, the WAL holds "
            f"{logged_after_checkpoint} after the checkpoint"
        )
    changed = [u for u in before if before[u] != after.get(u)]
    if changed:
        problems.append(f"top-N changed across recovery for {changed[:3]}")
    return problems


def check_nesting(spans: list[tuple]) -> list[str]:
    """Every span lies inside its parent's interval.

    Self times are computed from the tree, so a span that escapes its
    parent (a wrapper that ends early, or a stack shared across threads)
    would make them wrong.
    """
    by_id = {span[0]: span for span in spans}
    escaped = [
        span[3] for span in spans
        if span[1] in by_id and (
            span[4] < by_id[span[1]][4] - NEST_SLACK_S
            or span[5] > by_id[span[1]][5] + NEST_SLACK_S
        )
    ]
    if escaped:
        return [f"{len(escaped)} spans escape their parent, e.g. {escaped[:3]}"]
    return []
