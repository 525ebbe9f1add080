"""Tests for the LRU/TTL result cache."""

import pytest

from repro.serving.cache import LRUTTLCache


class FakeClock:
    """Deterministic clock so TTL expiry is testable without sleeping."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLRU:
    def test_get_put_roundtrip(self):
        cache = LRUTTLCache(maxsize=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("b", default="fallback") == "fallback"

    def test_evicts_least_recently_used(self):
        cache = LRUTTLCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # touch a, making b the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUTTLCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, b becomes LRU
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_len_and_clear(self):
        cache = LRUTTLCache(maxsize=8)
        for i in range(5):
            cache.put(i, i)
        assert len(cache) == 5
        cache.clear()
        assert len(cache) == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LRUTTLCache(maxsize=0)
        with pytest.raises(ValueError):
            LRUTTLCache(ttl=0.0)


class TestTTL:
    def test_expires_after_ttl(self):
        clock = FakeClock()
        cache = LRUTTLCache(maxsize=4, ttl=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(9.999)
        assert cache.get("a") == 1
        clock.advance(0.002)
        assert cache.get("a") is None
        assert cache.expirations == 1
        assert len(cache) == 0  # expired entry is dropped, not retained

    def test_put_resets_age(self):
        clock = FakeClock()
        cache = LRUTTLCache(maxsize=4, ttl=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(8.0)
        cache.put("a", 2)
        clock.advance(8.0)
        assert cache.get("a") == 2  # 8s old relative to the re-put

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = LRUTTLCache(maxsize=4, ttl=None, clock=clock)
        cache.put("a", 1)
        clock.advance(1e9)
        assert cache.get("a") == 1

    def test_overflow_purges_expired_before_evicting_live(self):
        """Regression: a stale MRU entry must never push out a live LRU one.

        ``a`` is expired but most-recently-used; ``b`` is live but LRU.
        Overflow must drop ``a`` (an expiration), not evict ``b``.
        """
        clock = FakeClock()
        cache = LRUTTLCache(maxsize=2, ttl=12.0, clock=clock)
        cache.put("a", 1)
        clock.advance(5.0)
        cache.put("b", 2)
        cache.get("a")  # touch a: recency order is now [b, a]
        clock.advance(11.0)  # a is 16s old (dead), b is 11s old (live)
        cache.put("c", 3)
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.get("a") is None
        assert cache.expirations == 1
        assert cache.evictions == 0


class TestAccounting:
    def test_hit_miss_counters(self):
        cache = LRUTTLCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        assert cache.hits == 2
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_expiry_counts_as_miss(self):
        clock = FakeClock()
        cache = LRUTTLCache(maxsize=4, ttl=1.0, clock=clock)
        cache.put("a", 1)
        clock.advance(2.0)
        cache.get("a")
        assert cache.misses == 1
        assert cache.hit_rate == 0.0

    def test_stats_shape(self):
        cache = LRUTTLCache(maxsize=4)
        stats = cache.stats()
        assert {"size", "maxsize", "hits", "misses", "hit_rate",
                "expirations", "evictions"} <= set(stats)

