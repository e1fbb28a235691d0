"""Inputs of every workload, generated from a seed, and their scales.

The worlds are fixed: the paper's calibrated world, and for
``serve_ann`` a fixed clustered catalogue whose action stream is a
paper-calibrated world mapped onto it.  So the served state and its
quality figures are the same in every run, and the cost of an operation
does not drift with the world a seed happens to draw.  The seed picks
the slice of a world's action stream a workload ingests and draws the
serving workloads' reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clock import SECONDS_PER_DAY
from repro.config import MFConfig, RecommendConfig, ReproConfig, RetrievalConfig
from repro.data import ActionType, SyntheticWorld, UserAction, Video
from repro.data.stream import ENGAGEMENT_ACTIONS
from repro.data.synthetic import paper_world_config

#: World seed of the served state: the paper-reproduction calibration seed.
TABLE_WORLD_SEED = 2016
#: Catalogue seed of the ``_catalog`` recipe in benchmarks/test_ann_retrieval.py.
ANN_CATALOG_SEED = 7
DAY7 = 6 * SECONDS_PER_DAY
KINDS = ("music", "news", "sport", "film", "kids")
HISTORY_MAX = 100  # UserHistoryStore's default bound
#: Days of the served world: 1-6 train the model, day 7 is the recall
#: test day, and days 7-10 feed the ingest stream.
TABLE_DAYS = 10


@dataclass(frozen=True)
class Scale:
    users: int
    videos: int
    sessions_per_day: float
    ann_videos: int
    ann_warm_users: int
    ann_recall_users: int
    ann_stream_videos: int
    ann_sessions_per_day: float
    stream_days: int
    durable_actions_per_s: int
    durable_reads_per_s: int
    quality_users: int


SCALES = {
    # Sized so a run at the seed commit fits the benchmark's time budget
    # on a 2-core machine; see BENCHMARK.json's run_seconds.
    "full": Scale(
        users=300,
        videos=400,
        sessions_per_day=0.25,
        ann_videos=300_000,
        ann_warm_users=2000,
        ann_recall_users=20,
        ann_stream_videos=5000,
        ann_sessions_per_day=0.25,
        stream_days=2,
        durable_actions_per_s=250,
        durable_reads_per_s=1000,
        quality_users=20,
    ),
    "tiny": Scale(
        users=40,
        videos=60,
        sessions_per_day=0.5,
        ann_videos=3000,
        ann_warm_users=50,
        ann_recall_users=5,
        ann_stream_videos=200,
        ann_sessions_per_day=2.0,
        stream_days=2,
        durable_actions_per_s=300,
        durable_reads_per_s=40,
        quality_users=5,
    ),
}


def config(retrieval: str = "table") -> ReproConfig:
    """``repro-serve``'s configuration, with watched videos excluded.

    The program's default recommends already-watched videos (re-watching
    is part of the paper's workload); excluding them makes "no watched
    video is recommended" a checkable property of every served list.
    """
    return ReproConfig(
        recommend=RecommendConfig(exclude_watched=True),
        retrieval=RetrievalConfig(mode=retrieval),
    )


def table_world(scale: Scale) -> SyntheticWorld:
    """The served world of ``serve_table`` (see :data:`TABLE_DAYS`).

    Its stream is generated day by day from one generator, so the first
    seven days are the same however many are generated.
    """
    return SyntheticWorld(
        paper_world_config(
            seed=TABLE_WORLD_SEED,
            n_users=scale.users,
            n_videos=scale.videos,
            days=TABLE_DAYS,
            mean_sessions_per_day=scale.sessions_per_day,
        )
    )


def slice_of(actions: list[UserAction], seed: int, count: int) -> list[UserAction]:
    """``count`` consecutive actions, starting within the first tenth of
    a slice's length at a point the seed picks, so slices differ action
    by action but build states of the same size and shape, whose costs
    are comparable."""
    if len(actions) < count:
        raise ValueError(f"stream holds {len(actions)} actions, {count} needed")
    spare = max(1, min(len(actions) - count, count // 10))
    start = int(np.random.default_rng(seed).integers(0, spare))
    return actions[start:start + count]


def stream_slice(seed: int, scale: Scale, count: int):
    """The paper world and ``count`` consecutive actions of its stream."""
    world = SyntheticWorld(
        paper_world_config(
            seed=TABLE_WORLD_SEED,
            n_users=scale.users,
            n_videos=scale.videos,
            days=scale.stream_days,
        )
    )
    return world, slice_of(world.generate_actions(), seed, count)


def split_day7(actions: list[UserAction]) -> tuple[list, list]:
    """Actions before day 7, and the rest."""
    train = [a for a in actions if a.timestamp < DAY7]
    return train, actions[len(train):]


def ann_catalog(scale: Scale):
    """Clustered factor catalogue at the program's default ``f``.

    Returns ``(videos, ids, vectors, biases, users)``: ``users`` maps each
    warm user id to a vector drawn near a cluster centre.
    """
    f = MFConfig().f
    n = scale.ann_videos
    rng = np.random.default_rng(ANN_CATALOG_SEED)
    n_centers = max(64, n // 100)
    centers = rng.standard_normal((n_centers, f)) * 0.25
    assign = rng.integers(0, n_centers, size=n)
    vectors = centers[assign] + rng.standard_normal((n, f)) * 0.06
    biases = rng.standard_normal(n) * 0.05
    ids = [f"v{i:07d}" for i in range(n)]
    videos = {
        vid: Video(vid, KINDS[i % len(KINDS)], duration=100.0)
        for i, vid in enumerate(ids)
    }
    picks = centers[rng.integers(0, n_centers, scale.ann_warm_users)]
    user_vectors = picks + rng.standard_normal(picks.shape) * 0.08
    users = {f"w{i:05d}": user_vectors[i] for i in range(len(user_vectors))}
    return videos, ids, vectors, biases, users


def ann_stream(scale: Scale) -> list[UserAction]:
    """The action stream of ``serve_ann``: one day of a paper-calibrated
    world of ``ann_warm_users`` users and ``ann_stream_videos`` videos,
    moved to day 7 and mapped onto the catalogue.

    User ``u<i>`` becomes warm user ``w<i>``; the world's videos become a
    fixed random subset of the catalogue, so the stream keeps the world's
    popularity skew, re-watching and action funnel (impressions included).
    Play time is rescaled to the catalogue's 100-second videos.
    """
    world = SyntheticWorld(
        paper_world_config(
            seed=TABLE_WORLD_SEED,
            n_users=scale.ann_warm_users,
            n_videos=scale.ann_stream_videos,
            days=1,
            mean_sessions_per_day=scale.ann_sessions_per_day,
        )
    )
    rng = np.random.default_rng(ANN_CATALOG_SEED)
    picks = rng.choice(scale.ann_videos, size=len(world.videos), replace=False)
    to_catalogue = {
        vid: f"v{int(picks[i]):07d}" for i, vid in enumerate(sorted(world.videos))
    }
    out = []
    for a in world.generate_actions():
        rescale = 100.0 / world.videos[a.video_id].duration
        out.append(UserAction(
            a.timestamp + DAY7, f"w{int(a.user_id[1:]):05d}",
            to_catalogue[a.video_id], a.action, view_time=a.view_time * rescale,
        ))
    return out


class HistoryReplica:
    """Independent model of each user's bounded, most-recent-first history.

    Mirrors the documented contract of ``UserHistoryStore``: engagement
    actions push their video to the front, duplicates move, and only the
    newest :data:`HISTORY_MAX` distinct videos are kept.
    """

    def __init__(self) -> None:
        self.recent: dict[str, list[str]] = {}

    def apply(self, action: UserAction) -> None:
        if action.action not in ENGAGEMENT_ACTIONS:
            return
        entries = self.recent.get(action.user_id, [])
        entries = [action.video_id] + [v for v in entries if v != action.video_id]
        self.recent[action.user_id] = entries[:HISTORY_MAX]

    def certainly_watched(self, user_id: str, unsettled: int = 0) -> set[str]:
        """Videos in the history whatever ``unsettled`` concurrent
        ingests of this user did: each may evict the oldest entry."""
        entries = self.recent.get(user_id, [])
        evictable = max(0, len(entries) + unsettled - HISTORY_MAX)
        return set(entries[: len(entries) - evictable])

    def copy(self) -> "HistoryReplica":
        clone = HistoryReplica()
        clone.recent = {u: list(v) for u, v in self.recent.items()}
        return clone


def action_doc(action: UserAction) -> dict:
    """The ``/ingest`` JSON body of one action."""
    return {
        "timestamp": action.timestamp,
        "user_id": action.user_id,
        "video_id": action.video_id,
        "action": action.action.value,
        "view_time": action.view_time,
    }
