"""An LRU + TTL cache for the request hot path.

Recommendation traffic is heavy-tailed — a small set of hot items
receives a large share of clicks — so a tiny in-process result cache
absorbs a disproportionate slice of QPS.  Entries carry the serving
bundle's version in their key (the service does this), so a hot swap
naturally invalidates yesterday's results without an explicit flush.

The clock is injectable so TTL expiry is testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.utils import require_positive

#: Sentinel distinguishing "key absent" from a cached ``None``.
_MISS = object()


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
    """

    def __init__(
        self,
        maxsize: int = 1024,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        require_positive(maxsize, "maxsize")
        if ttl is not None:
            require_positive(ttl, "ttl")
        self.maxsize = maxsize
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[float, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value, or ``default`` on miss/expiry."""
        now = self._clock()
        with self._lock:
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
        """
        now = self._clock()
        with self._lock:
            if (
                self.ttl is not None
                and key not in self._entries
                and len(self._entries) >= self.maxsize
            ):
                dead = [
                    k
                    for k, (stored_at, _value) in self._entries.items()
                    if now - stored_at >= self.ttl
                ]
                for k in dead:
                    del self._entries[k]
                    self.expirations += 1
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
        }
