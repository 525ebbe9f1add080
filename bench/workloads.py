"""The five workloads and every input they feed the program.

All inputs — the world, day-0 and day-1 sessions, request bodies,
arrival schedules, stream windows — are generated here from ``--seed``
and ``--seconds`` alone.  The program under test receives only these
generated inputs; it never sees the seed.  ``digest()`` hashes them so
``python3 -m bench selftest`` can show that one seed gives byte-identical
inputs in a fresh process and another seed does not.

Every workload carries one world through the same day in the life of the
system — train, publish, refresh, read, stream — because every
end-to-end metric is reported on every workload.  What differs is which
phase gets the time and which configuration of the stack is under load;
``WorkloadSpec.why`` records the reason each one exists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.data import (
    AGE_BUCKETS,
    GENDERS,
    PURCHASE_POWERS,
    BehaviorDataset,
    Session,
    SyntheticWorld,
    SyntheticWorldConfig,
)
from repro.streaming import ClickEvent, SyntheticEventStream

#: The shared world of the issue: 2000 items, 1000 users, 64 leaf categories.
WORLD = dict(n_items=2000, n_users=1000, n_leaf_categories=64, n_top_categories=8)

#: Candidates per answer (the gateway's default, so bodies omit it) and
#: embedding width.
K = 10
DIM = 32

#: Queries per ``/recommend_batch`` call of the closed loop.
BATCH_QUERIES = 32

#: Request mixes ``(warm, cold_item, cold_user, unknown)`` + warm Zipf exponent.
MIX_TABLE = ((0.90, 0.04, 0.03, 0.03), 1.2)
MIX_RETRIEVAL = ((0.60, 0.20, 0.15, 0.05), 1.05)

EVENTS_PER_WINDOW = 256
NEW_LISTINGS_PER_WINDOW = 2


@dataclass(frozen=True)
class WorkloadSpec:
    """One parameterisation of the day-in-the-life pipeline.

    Durations and corpus sizes are shares of ``--seconds`` so the whole
    timed section scales with it; at the reference 12 s every workload's
    timed section is 11-14 s on the 2-core reference box.
    """

    name: str
    why: str
    #: Day-0 training engine: the sequential trainer or the Hogwild engine
    #: with 2 workers merging hot rows under the lock.
    engine: str
    #: Day-0 sessions per second of ``--seconds`` (two epochs each).
    sessions_per_s: float
    #: 0 = unsharded ``MatchingService``; N >= 2 = HBGP-sharded service.
    shards: int
    #: Result cache on (service default) or off.
    cache: bool
    table_coverage: float
    #: Read phase: ``open`` = Poisson singles on a schedule, ``closed`` =
    #: two callers sending 32-query batches back to back.
    loop: str
    #: Open loop: ``(rate rps, share of --seconds)`` per step.  Closed
    #: loop: one ``(0, share)`` entry giving the dwell.  The first step is
    #: the one whose latency is the end-to-end ``lat_p50_ms``.
    steps: tuple[tuple[int, float], ...]
    mix: tuple[tuple[float, float, float, float], float]
    #: Whether the stream windows are applied while the read phase runs
    #: (writes beside reads) or after it.
    stream_during_reads: bool


WORKLOADS: tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="nightly",
        why="the batch job: >=60% of wall is SGNS training on the local engine, serving does almost nothing",
        engine="local",
        sessions_per_s=200.0,
        shards=0,
        cache=True,
        table_coverage=0.9,
        loop="open",
        steps=((200, 0.3),),
        mix=MIX_TABLE,
        stream_during_reads=False,
    ),
    WorkloadSpec(
        name="hogwild",
        why="same arithmetic as nightly on the 2-worker Hogwild engine, so time goes to sharding, pair feed and hot-row sync",
        engine="parallel",
        sessions_per_s=200.0,
        shards=0,
        cache=True,
        table_coverage=0.9,
        loop="open",
        steps=((200, 0.3),),
        mix=MIX_TABLE,
        stream_during_reads=False,
    ),
    WorkloadSpec(
        name="wire_single",
        why="cached table-tier singles at 200/400/800 rps: the gateway (coalescing wait, HTTP, JSON) does nearly all the work",
        engine="local",
        sessions_per_s=125.0,
        shards=0,
        cache=True,
        table_coverage=0.9,
        loop="open",
        steps=((200, 0.3), (400, 0.25), (800, 0.15)),
        mix=MIX_TABLE,
        stream_during_reads=False,
    ),
    WorkloadSpec(
        name="wire_batch",
        why="closed-loop 32-query batches on 2 HBGP shards, no cache, 20% table: ANN, cold tiers and scatter-gather do the work",
        engine="local",
        sessions_per_s=125.0,
        shards=2,
        cache=False,
        table_coverage=0.2,
        loop="closed",
        steps=((0, 0.6),),
        mix=MIX_RETRIEVAL,
        stream_during_reads=False,
    ),
    WorkloadSpec(
        name="wire_stream",
        why="200 rps reads while stream windows train, rebuild and flip on the same store: promotions contend with requests",
        engine="local",
        sessions_per_s=125.0,
        shards=0,
        cache=True,
        table_coverage=0.9,
        loop="open",
        steps=((200, 0.7),),
        mix=MIX_TABLE,
        stream_during_reads=True,
    ),
)

BY_NAME = {spec.name: spec for spec in WORKLOADS}

#: Day-1 traffic relative to day 0, and the floor that keeps a smoke run
#: (``--seconds 1``) trainable.
DAY1_SHARE = 0.15
MIN_SESSIONS = 200

#: ``--seconds`` the repeat counts below are meant for; a shorter run
#: (``--smoke``) scales them down so every code path still runs.
REFERENCE_SECONDS = 12.0

#: Day-1 refresh cycles and stream windows at full scale; ``refresh_s``
#: and ``stream_apply_s`` are their medians.
REFRESH_CYCLES = 3
STREAM_WINDOWS = 8

#: Untimed cache/connection warm-up before the read phase.
WARMUP_RATE = 100
WARMUP_SHARE = 0.08


@dataclass
class Step:
    """One segment of the read phase, ready to send."""

    name: str
    loop: str
    rate: int
    duration_s: float
    #: Open loop: one body per arrival.  Closed loop: one list per caller.
    bodies: "list[bytes] | list[list[bytes]]"
    #: Open loop: seconds after the step's start each request is due.
    due: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass
class Inputs:
    spec: WorkloadSpec
    seed: int
    seconds: float
    day0: BehaviorDataset
    test_sessions: list[Session]
    day1: BehaviorDataset
    warmup: Step
    steps: list[Step]
    refresh_cycles: int
    windows: list[list[ClickEvent]]
    #: New listing ids introduced by each window.
    new_listings: list[list[int]]

    def digest(self) -> str:
        """SHA-256 over every generated byte the program will be fed."""
        h = hashlib.sha256()
        for dataset in (self.day0, self.day1):
            for session in dataset.sessions:
                h.update(np.asarray([session.user_id, *session.items], dtype=np.int64).tobytes())
        for step in (self.warmup, *self.steps):
            h.update(np.ascontiguousarray(step.due, dtype=np.float64).tobytes())
            for body in step.bodies:
                for chunk in body if isinstance(body, list) else (body,):
                    h.update(chunk)
        for window in self.windows:
            for event in window:
                h.update(repr((event.user_id, event.item_id, event.si_values)).encode())
        return h.hexdigest()


def _request_dicts(
    rng: np.random.Generator, dataset: BehaviorDataset, n: int,
    mix: tuple[tuple[float, float, float, float], float],
) -> list[dict]:
    """``n`` request bodies shaped like feed traffic (as dicts).

    Warm ids are Zipf ranks folded into the catalogue by modulo (clamping
    would pile the tail onto one artificially hot item); cold items carry
    a donor's side information and no id; cold users carry demographics
    only; unknown ids lie far outside the catalogue.
    """
    fractions, zipf_a = mix
    n_items = dataset.n_items
    kinds = rng.choice(4, size=n, p=fractions)
    out: list[dict] = []
    for kind in kinds:
        if kind == 0:
            out.append({"item_id": (int(rng.zipf(zipf_a)) - 1) % n_items})
        elif kind == 1:
            donor = dataset.items[int(rng.integers(n_items))]
            out.append({"si_values": {str(f): int(v) for f, v in donor.si_values.items()}})
        elif kind == 2:
            out.append(
                {
                    "gender": str(rng.choice(GENDERS)),
                    "age_bucket": str(rng.choice(AGE_BUCKETS)),
                    "purchase_power": str(rng.choice(PURCHASE_POWERS)),
                }
            )
        else:
            out.append({"item_id": n_items + 10**6 + int(rng.integers(10**6))})
    return out


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


def _open_step(
    rng: np.random.Generator, dataset: BehaviorDataset, name: str, rate: int,
    duration_s: float, mix,
) -> Step:
    """Poisson arrivals at ``rate`` for ``duration_s``, one body each.

    The count is fixed at ``rate * duration_s`` and the times are sorted
    uniforms — a Poisson process conditioned on its count — so the work
    in a step does not vary with the seed.
    """
    due = np.sort(rng.uniform(0.0, duration_s, size=max(1, round(rate * duration_s))))
    bodies = [_encode(p) for p in _request_dicts(rng, dataset, len(due), mix)]
    return Step(name, "open", rate, duration_s, bodies, due)


def _closed_step(
    rng: np.random.Generator, dataset: BehaviorDataset, duration_s: float, mix,
    callers: int = 2,
) -> Step:
    """Per-caller lists of 32-query batch bodies (cycled if a caller outruns them)."""
    calls = max(8, int(duration_s * 100))
    bodies = [
        [
            _encode({"requests": _request_dicts(rng, dataset, BATCH_QUERIES, mix)})
            for _ in range(calls)
        ]
        for _ in range(callers)
    ]
    return Step("closed", "closed", 0, duration_s, bodies)


def generate(spec: WorkloadSpec, seed: int, seconds: float) -> Inputs:
    """Everything the run will feed the program, from ``seed`` alone."""
    world_rng, request_rng, stream_rng = (
        np.random.default_rng([seed, stream]) for stream in range(3)
    )
    world = SyntheticWorld(SyntheticWorldConfig(**WORLD), seed=world_rng)
    users = world.generate_users()
    n_day0 = max(MIN_SESSIONS, int(spec.sessions_per_s * seconds))
    n_day1 = max(MIN_SESSIONS // 2, int(n_day0 * DAY1_SHARE))
    sessions = world.generate_sessions(users, n_day0 + n_day1)
    full_day0 = BehaviorDataset(world.items, users, sessions[:n_day0], validate=False)
    day0, test_sessions = full_day0.split_last_item()
    day1 = BehaviorDataset(world.items, users, sessions[n_day0:], validate=False)

    warmup = _open_step(
        request_rng, day0, "warmup", WARMUP_RATE, max(0.2, WARMUP_SHARE * seconds), spec.mix
    )
    if spec.loop == "open":
        steps = [
            _open_step(request_rng, day0, f"r{rate}", rate, share * seconds, spec.mix)
            for rate, share in spec.steps
        ]
    else:
        steps = [_closed_step(request_rng, day0, spec.steps[0][1] * seconds, spec.mix)]

    stream = SyntheticEventStream(
        day1,
        new_items_per_window=NEW_LISTINGS_PER_WINDOW,
        events_per_window=EVENTS_PER_WINDOW,
        seed=stream_rng,
    )
    scale = min(1.0, seconds / REFERENCE_SECONDS)
    windows, new_listings, seen = [], [], 0
    for _ in range(max(2, round(STREAM_WINDOWS * scale))):
        windows.append(stream.window())
        ids = stream.new_item_ids
        new_listings.append(ids[seen:])
        seen = len(ids)
    return Inputs(
        spec, seed, seconds, day0, test_sessions, day1, warmup, steps,
        max(1, round(REFRESH_CYCLES * scale)), windows, new_listings,
    )
