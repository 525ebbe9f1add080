"""Synthetic load generation against the matching service.

Drives a :class:`~repro.serving.sharding.MatchingService` with a
configurable request mix (warm items skewed Zipf-style like real click
traffic, cold items, cold users, garbage), optionally performs a hot
swap mid-run, and reports QPS, cache hit rate and per-tier latency
quantiles as one JSON-serializable dict.  Shared by the ``sisg loadgen``
CLI command and ``benchmarks/bench_serving_latency.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.schema import (
    AGE_BUCKETS,
    GENDERS,
    PURCHASE_POWERS,
    BehaviorDataset,
)
from repro.serving.service import MatchRequest
from repro.serving.sharding import MatchingService
from repro.utils import Timer, ensure_rng, get_logger, require, require_positive

logger = get_logger("serving.loadgen")


@dataclass
class LoadMix:
    """Request-mix weights; non-negative, normalized at sampling time.

    Weights need not sum to 1 — ``fractions()`` renormalizes, so
    ``LoadMix(7, 1, 1, 1)`` and ``LoadMix(0.7, 0.1, 0.1, 0.1)`` describe
    the same traffic.  A zero-weight class is valid and simply never
    emitted (``LoadMix(1, 0, 0, 0)`` is pure warm traffic).

    ``cold_wave`` (default 0: off, keeping old 4-weight call sites
    byte-compatible) models a cold-start *wave* — a flash-sale listing
    drop where a burst of never-seen item ids, each carrying listing
    side information, hammers the cold tiers all at once.  Unlike the
    other classes its requests arrive as one contiguous burst, which is
    exactly the traffic the streaming ingest path exists to absorb.
    """

    warm: float = 0.70
    cold_item: float = 0.10
    cold_user: float = 0.10
    unknown: float = 0.10
    cold_wave: float = 0.0

    def _parts(self) -> tuple[float, ...]:
        return (
            self.warm,
            self.cold_item,
            self.cold_user,
            self.unknown,
            self.cold_wave,
        )

    def validate(self) -> None:
        parts = self._parts()
        require(all(p >= 0 for p in parts), "mix weights must be >= 0")
        require(sum(parts) > 0, "mix weights must not all be zero")

    def fractions(self) -> tuple[float, float, float, float, float]:
        """Normalized (warm, cold_item, cold_user, unknown, cold_wave).

        Exact normalization matters: ``numpy.random.Generator.choice``
        rejects probability vectors that are off by float noise (e.g.
        ``0.3 + 0.3 + 0.4`` sums to ``0.9999999999999999``), so the sum
        is divided out rather than asserted.
        """
        self.validate()
        parts = self._parts()
        total = sum(parts)
        fractions = tuple(p / total for p in parts)
        # Normalized floats can still miss 1.0 by an ulp; fold the
        # residue into the largest class so `choice` always accepts.
        residue = 1.0 - sum(fractions)
        if residue:
            bump = max(range(len(parts)), key=lambda i: fractions[i])
            fractions = tuple(
                f + residue if i == bump else f for i, f in enumerate(fractions)
            )
        return fractions  # type: ignore[return-value]


def synth_requests(
    dataset: BehaviorDataset,
    n_requests: int,
    mix: LoadMix | None = None,
    zipf_a: float = 1.2,
    seed: "int | np.random.Generator | None" = 0,
    wave_pool: int = 4,
) -> list[MatchRequest]:
    """Sample a request stream shaped like homepage-feed traffic.

    - *warm*: item ids drawn Zipf(``zipf_a``) over the catalogue, so a
      hot head dominates — which is what makes the result cache earn
      its keep;
    - *cold item*: SI values copied from a random existing item but no
      ``item_id`` (a new listing described only by metadata);
    - *cold user*: random known demographics, no item;
    - *unknown*: an item id far outside the catalogue and no metadata
      (exercises the popularity tier);
    - *cold wave*: never-seen item ids (a pool of ``wave_pool`` fresh
      listings, each with donor side information) delivered as one
      contiguous burst — a listing drop hitting the cold-item tier all
      at once, the load shape the streaming ingest path must absorb.
    """
    mix = mix or LoadMix()
    require_positive(n_requests, "n_requests")
    require_positive(wave_pool, "wave_pool")
    rng = ensure_rng(seed)
    n_items = dataset.n_items
    kinds = rng.choice(5, size=n_requests, p=list(mix.fractions()))
    wave_ids = [
        n_items + 10**6 + i for i in range(wave_pool)
    ]
    wave_donors = [
        dataset.items[int(rng.integers(n_items))] for _ in wave_ids
    ]
    requests: list[MatchRequest] = []
    wave: list[MatchRequest] = []
    wave_at: int | None = None
    for kind in kinds:
        if kind == 0:
            # Fold out-of-catalogue Zipf ranks back with a modulo: clamping
            # them to `n_items - 1` piles the entire tail onto the single
            # last item and makes it artificially hot (for zipf_a=1.2 and a
            # few hundred items the tail carries ~30% of the warm mass).
            rank = int(rng.zipf(zipf_a))
            requests.append(MatchRequest(item_id=(rank - 1) % n_items))
        elif kind == 1:
            donor = dataset.items[int(rng.integers(n_items))]
            requests.append(MatchRequest(si_values=dict(donor.si_values)))
        elif kind == 2:
            requests.append(
                MatchRequest(
                    gender=str(rng.choice(GENDERS)),
                    age_bucket=str(rng.choice(AGE_BUCKETS)),
                    purchase_power=str(rng.choice(PURCHASE_POWERS)),
                )
            )
        elif kind == 3:
            requests.append(MatchRequest(item_id=n_items + int(rng.integers(10**6))))
        else:
            # Collected, then spliced back in as one contiguous burst at
            # the position of the first wave draw.
            pick = int(rng.integers(wave_pool))
            wave.append(
                MatchRequest(
                    item_id=wave_ids[pick],
                    si_values=dict(wave_donors[pick].si_values),
                )
            )
            if wave_at is None:
                wave_at = len(requests)
    if wave:
        requests = requests[:wave_at] + wave + requests[wave_at:]
    return requests


def latency_percentiles(latencies_s: "list[float] | np.ndarray") -> dict:
    """``{"p50": s, "p95": s, "p99": s}`` over per-request latencies.

    Shared by :func:`run_load` and the network loadgen
    (:mod:`repro.serving.netload`) so in-process and over-the-wire
    reports quote tail latency in the same shape and unit (seconds).
    """
    if len(latencies_s) == 0:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    samples = np.asarray(latencies_s, dtype=np.float64)
    return {
        "p50": float(np.quantile(samples, 0.50)),
        "p95": float(np.quantile(samples, 0.95)),
        "p99": float(np.quantile(samples, 0.99)),
    }


def run_load(
    service: MatchingService,
    requests: list[MatchRequest],
    k: int = 10,
    batch_size: int = 1,
    swap: Callable[[], object] | None = None,
    swap_after: float = 0.5,
) -> dict:
    """Replay ``requests`` against ``service`` and report the results.

    Parameters
    ----------
    service, requests, k:
        What to drive and how many candidates to ask for.
    batch_size:
        ``1`` uses the single-request path; larger values use
        :meth:`MatchingService.recommend_batch` (micro-batched ANN).
    swap:
        Optional zero-argument callable (e.g. ``lambda:
        store.swap(new_bundle)``) fired once after ``swap_after`` of the
        stream has been served — simulates the nightly refresh landing
        mid-traffic.  Failures during/after the swap are counted, not
        raised.

    Returns
    -------
    dict
        ``{n_requests, duration_s, qps, failures, swap_performed,
        swap_duration_s, versions_served, cache_hit_rate,
        latency_s: {p50, p95, p99}, tiers: {...}, cache: {...}}`` —
        ``duration_s`` is wall time including the swap; ``qps`` and
        ``max_lap_s`` describe request work only, and ``latency_s``
        holds per-request service-time percentiles (cache hits
        included), directly comparable to the network loadgen report.
    """
    require_positive(k, "k")
    require_positive(batch_size, "batch_size")
    require(0.0 < swap_after <= 1.0, "swap_after must be in (0, 1]")
    n = len(requests)
    require_positive(n, "len(requests)")
    swap_at = int(n * swap_after) if swap is not None else None
    failures = 0
    served = 0
    swapped = False
    swap_duration = 0.0
    versions: set[int] = set()
    lap_times: list[float] = []
    latencies: list[float] = []

    timer = Timer()
    timer.start()
    position = 0
    while position < n:
        if swap_at is not None and not swapped and position >= swap_at:
            # The swap (a full bundle rebuild in the common case) is not a
            # request: time it on its own and restart the lap clock so its
            # cost cannot inflate the next request lap / `max_lap_s`.
            swap_start = time.perf_counter()
            swap()
            swap_duration = time.perf_counter() - swap_start
            swapped = True
            timer.lap()
        chunk = requests[position : position + batch_size]
        try:
            if batch_size == 1:
                outcomes = [service.recommend(chunk[0], k)]
            else:
                outcomes = service.recommend_batch(chunk, k)
            for result in outcomes:
                versions.add(result.version)
                latencies.append(result.latency)
            served += len(outcomes)
        except Exception:
            failures += len(chunk)
            logger.exception("request(s) failed at position %d", position)
        position += len(chunk)
        lap_times.append(timer.lap())
    duration = timer.stop()

    snap = service.snapshot()
    request_seconds = max(duration - swap_duration, 0.0)
    return {
        "n_requests": n,
        "served": served,
        "duration_s": duration,
        "qps": served / request_seconds if request_seconds > 0 else 0.0,
        "failures": failures,
        "batch_size": batch_size,
        "swap_performed": swapped,
        "swap_duration_s": swap_duration,
        "versions_served": sorted(versions),
        "cache_hit_rate": snap["cache_hit_rate"],
        "latency_s": latency_percentiles(latencies),
        "max_lap_s": max(lap_times) if lap_times else 0.0,
        "tiers": snap["tiers"],
        "cache": snap["cache"],
        "store_version": snap["store_version"],
    }
