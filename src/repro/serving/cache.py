"""An LRU + TTL cache for the request hot path.

Recommendation traffic is heavy-tailed — a small set of hot items
receives a large share of clicks — so a tiny in-process result cache
absorbs a disproportionate slice of QPS.  Entries carry the serving
bundle's version in their key (the service does this), so a hot swap
naturally invalidates yesterday's results without an explicit flush.

``admission="tinylfu"`` adds a TinyLFU-style frequency gate (Einziger et
al., *TinyLFU: A Highly Efficient Cache Admission Policy*): a count-min
sketch estimates each key's access frequency, and on overflow a new key
is admitted only if it is estimated *more* frequent than the LRU victim
it would evict.  A one-pass scan of cold keys (a crawler, a cold-start
wave from the streaming path) then bounces off the gate instead of
flushing the hot working set — scan resistance a plain LRU lacks.  Off
by default.

The clock is injectable so TTL expiry is testable without sleeping.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np

from repro.utils import require, require_positive

#: Sentinel distinguishing "key absent" from a cached ``None``.
_MISS = object()

_MASK64 = (1 << 64) - 1
#: Fixed seed of the sketch's row multipliers: counts are reproducible.
_MULTIPLIER_SEED = 0x5EED


class FrequencySketch:
    """Count-min sketch with saturating counters and periodic halving.

    ``depth`` hash rows of ``width`` counters each; an access increments
    every row (saturating at ``cap``), an estimate takes the row
    minimum.  After ``sample_size`` recorded accesses every counter is
    halved — TinyLFU's aging rule, which keeps the sketch a sliding
    *recency-weighted* frequency estimate instead of an all-time one
    (yesterday's hot key must not block today's).
    """

    def __init__(
        self, width: int = 1024, depth: int = 4, sample_size: "int | None" = None
    ) -> None:
        require_positive(width, "width")
        require_positive(depth, "depth")
        # Round up to a power of two so a row index is the top bits of a
        # 64-bit product.
        self._width = 1 << (width - 1).bit_length()
        self._table = np.zeros((depth, self._width), dtype=np.uint8)
        self._cap = 15
        self._ops = 0
        self._sample_size = (
            sample_size if sample_size is not None else 8 * self._width
        )
        require_positive(self._sample_size, "sample_size")
        # Multiply-shift hashing: each row takes the *high* bits of the key
        # hash times its own odd 64-bit multiplier, so rows are
        # independent (the low bits of a product by an odd number would
        # be a bijection of the key's low bits: one row, ``depth`` times).
        self._shift = 64 - (self._width.bit_length() - 1)
        self._multipliers = [
            int(m) | 1
            for m in np.random.default_rng(_MULTIPLIER_SEED).integers(
                1, 2**63, size=depth, dtype=np.uint64
            )
        ]

    def _rows(self, key: Hashable) -> list[int]:
        # ``repr`` is a canonical encoding of the cache's keys (tuples of
        # ints and strings) and ``crc32`` is unsalted, so a key lands in
        # the same counters in every process, whatever PYTHONHASHSEED is.
        h = zlib.crc32(repr(key).encode())
        return [((h * m) & _MASK64) >> self._shift for m in self._multipliers]

    def add(self, key: Hashable) -> None:
        """Record one access of ``key``."""
        for row, col in enumerate(self._rows(key)):
            if self._table[row, col] < self._cap:
                self._table[row, col] += 1
        self._ops += 1
        if self._ops >= self._sample_size:
            self._table >>= 1
            self._ops //= 2

    def estimate(self, key: Hashable) -> int:
        """Estimated access frequency of ``key`` (never underestimates
        within the current sample window)."""
        return int(
            min(self._table[row, col] for row, col in enumerate(self._rows(key)))
        )


class LRUTTLCache:
    """Thread-safe least-recently-used cache with optional expiry.

    Parameters
    ----------
    maxsize:
        Maximum number of entries; the least recently *used* entry is
        evicted on overflow.
    ttl:
        Time-to-live in seconds; ``None`` disables expiry.
    clock:
        Monotonic time source (injectable for tests).
    admission:
        ``None`` (default) admits every insert, matching a plain LRU.
        ``"tinylfu"`` gates inserts on a full cache through a
        :class:`FrequencySketch`: the new key must be estimated strictly
        more frequent than the LRU victim, otherwise the insert is
        rejected (counted under ``admission_rejections``).
    """

    def __init__(
        self,
        maxsize: int = 1024,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        admission: str | None = None,
    ) -> None:
        require_positive(maxsize, "maxsize")
        if ttl is not None:
            require_positive(ttl, "ttl")
        require(
            admission in (None, "tinylfu"),
            f"unknown admission policy: {admission!r}",
        )
        self.maxsize = maxsize
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[float, Any]] = OrderedDict()
        self._sketch = (
            FrequencySketch(width=max(64, 8 * maxsize))
            if admission == "tinylfu"
            else None
        )
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0
        self.admission_rejections = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value, or ``default`` on miss/expiry."""
        now = self._clock()
        with self._lock:
            if self._sketch is not None:
                # Lookups are the frequency signal: a key asked for often
                # earns admission even while it keeps missing.
                self._sketch.add(key)
            entry = self._entries.get(key, _MISS)
            if entry is _MISS:
                self.misses += 1
                return default
            stored_at, value = entry
            if self.ttl is not None and now - stored_at >= self.ttl:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting on overflow.

        Overflow first purges *expired* entries (counted as expirations —
        they are already dead, not victims) and only then falls back to
        LRU eviction, so a stale entry can never push out a live one.

        With TinyLFU admission, a brand-new key arriving at a full cache
        must be estimated more frequent than the LRU victim it would
        evict; otherwise the insert is dropped (refreshes of resident
        keys are always accepted — they displace nothing).
        """
        now = self._clock()
        with self._lock:
            if self._sketch is not None:
                self._sketch.add(key)
            if key not in self._entries and len(self._entries) >= self.maxsize:
                if self.ttl is not None:
                    dead = [
                        k
                        for k, (stored_at, _value) in self._entries.items()
                        if now - stored_at >= self.ttl
                    ]
                    for k in dead:
                        del self._entries[k]
                        self.expirations += 1
                if self._sketch is not None and len(self._entries) >= self.maxsize:
                    victim = next(iter(self._entries))
                    if self._sketch.estimate(key) <= self._sketch.estimate(victim):
                        self.admission_rejections += 1
                        return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (now, value)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)`` (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Counters + current size as a JSON-serializable dict."""
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "expirations": self.expirations,
            "evictions": self.evictions,
            "admission_rejections": self.admission_rejections,
        }
