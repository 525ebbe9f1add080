"""Serving-side observability: counters and per-tier latency histograms.

A production matching service lives or dies by its tail latency, and an
aggregate p99 hides *which* tier is slow — a candidate-table hit is a
dict lookup while a cold-start item pays an ANN scan.  This module keeps
one latency histogram per fallback tier plus free-form counters (cache
hits, swaps, errors), all behind a single lock so the service can record
from concurrent request threads.

Histograms store raw samples in a bounded ring buffer: exact quantiles
over the most recent ``max_samples`` observations, constant memory, no
bucket-boundary tuning.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Callable

import numpy as np

from repro.utils import require_positive

#: Quantiles reported by :meth:`LatencyHistogram.snapshot`.
QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


def to_jsonable(obj):
    """Recursively convert ``obj`` into plain JSON-serializable Python.

    Metrics flow through numpy on their way in (``np.quantile`` results,
    ``np.int64`` counter bumps, version arrays), and ``json.dumps``
    refuses numpy scalars — which breaks any consumer that serializes a
    snapshot, most importantly the gateway's ``/metrics`` endpoint.
    Every snapshot boundary funnels through this: numpy scalars become
    their native ``item()``, arrays become lists, tuples become lists,
    dict keys become strings.
    """
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


class LatencyHistogram:
    """Ring-buffer latency recorder with exact quantile snapshots.

    Parameters
    ----------
    max_samples:
        Size of the ring buffer.  Quantiles are computed over the most
        recent ``max_samples`` observations; ``count``/``total`` track
        the full lifetime.
    """

    def __init__(self, max_samples: int = 8192) -> None:
        require_positive(max_samples, "max_samples")
        self._samples = np.zeros(max_samples, dtype=np.float64)
        self._capacity = max_samples
        self._next = 0
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency observation (seconds)."""
        self._samples[self._next] = seconds
        self._next = (self._next + 1) % self._capacity
        self.count += 1
        self.total += seconds

    def quantile(self, q: float) -> float:
        """Exact quantile over the buffered samples (0.0 when empty)."""
        n = min(self.count, self._capacity)
        if n == 0:
            return 0.0
        return float(np.quantile(self._samples[:n], q))

    def snapshot(self) -> dict[str, float]:
        """``{count, mean, p50, p95, p99}`` — latencies in seconds."""
        mean = self.total / self.count if self.count else 0.0
        out: dict[str, float] = {"count": float(self.count), "mean": mean}
        for q in QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out


class ServingMetrics:
    """Thread-safe counters + per-tier latency histograms for the service.

    Counter names are free-form; the
    :class:`~repro.serving.sharding.MatchingService` uses ``requests``,
    ``cache_hit``, ``cache_miss``, ``swaps`` and ``errors``.
    ``observe(tier, seconds)`` lazily creates one histogram per tier.

    Beyond counters and histograms there are *gauges* (point-in-time
    numbers — a gauge may be a zero-argument callable, evaluated at
    snapshot time, so e.g. "seconds since the last refresh" stays live)
    and *info* entries (short strings such as the last refresh error).
    The refresh daemon publishes its state through these so one
    ``service.snapshot()`` shows both the request path and the nightly
    pipeline feeding it.
    """

    def __init__(self, max_samples: int = 8192) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = defaultdict(int)
        self._tiers: dict[str, LatencyHistogram] = {}
        self._gauges: dict[str, "float | Callable[[], float]"] = {}
        self._info: dict[str, str | None] = {}
        self._max_samples = max_samples

    def incr(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        with self._lock:
            self._counters[name] += n

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: "float | Callable[[], float]") -> None:
        """Set gauge ``name``: a number, or a callable evaluated per snapshot."""
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str) -> float | None:
        """Current value of gauge ``name`` (``None`` if never set)."""
        with self._lock:
            value = self._gauges.get(name)
        return float(value()) if callable(value) else value

    def set_info(self, name: str, value: str | None) -> None:
        """Attach a short free-form string (e.g. the last refresh error)."""
        with self._lock:
            self._info[name] = value

    def info(self, name: str) -> str | None:
        """Current value of info entry ``name`` (``None`` if never set)."""
        with self._lock:
            return self._info.get(name)

    def observe(self, tier: str, seconds: float) -> None:
        """Record one request latency under fallback tier ``tier``."""
        with self._lock:
            hist = self._tiers.get(tier)
            if hist is None:
                hist = self._tiers[tier] = LatencyHistogram(self._max_samples)
            hist.observe(seconds)

    @property
    def cache_hit_rate(self) -> float:
        """``cache_hit / (cache_hit + cache_miss)`` (0.0 with no lookups)."""
        with self._lock:
            hits = self._counters.get("cache_hit", 0)
            misses = self._counters.get("cache_miss", 0)
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> dict:
        """One JSON-serializable view of everything recorded so far.

        ``{"counters": {...}, "cache_hit_rate": float,
        "tiers": {tier: {count, mean, p50, p95, p99}},
        "gauges": {...}, "info": {...}}`` — ``gauges``/``info`` are
        omitted while empty so older reports keep their shape.  The
        result is strictly JSON-serializable: numpy scalars that snuck
        in through ``incr``/``set_gauge``/``observe`` come out native.
        """
        with self._lock:
            counters = dict(self._counters)
            tiers = {name: hist.snapshot() for name, hist in self._tiers.items()}
            gauges = dict(self._gauges)
            info = dict(self._info)
        hits = counters.get("cache_hit", 0)
        misses = counters.get("cache_miss", 0)
        total = hits + misses
        snap: dict = {
            "counters": counters,
            "cache_hit_rate": hits / total if total else 0.0,
            "tiers": tiers,
        }
        if gauges:
            # Callable gauges are evaluated outside the lock: they may be
            # arbitrary user code (e.g. "age of the live generation").
            snap["gauges"] = {
                name: float(value()) if callable(value) else value
                for name, value in gauges.items()
            }
        if info:
            snap["info"] = info
        return to_jsonable(snap)
