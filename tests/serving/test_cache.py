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


class TestTinyLFUAdmission:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            LRUTTLCache(maxsize=4, admission="lfu")

    def test_scan_resistance(self):
        """Regression: a one-pass scan of cold keys must not flush the hot
        working set through a TinyLFU gate — exactly what a plain LRU
        cannot prevent."""
        plain = LRUTTLCache(maxsize=8)
        gated = LRUTTLCache(maxsize=8, admission="tinylfu")
        for cache in (plain, gated):
            for key in range(8):
                cache.put(key, key)
            for _ in range(5):  # make the working set *frequent*
                for key in range(8):
                    assert cache.get(key) == key
            for cold in range(1000, 1100):  # the scan: each key seen once
                cache.put(cold, cold)
        # The plain LRU evicted every hot key; the gate bounced the scan.
        assert all(plain.get(key) is None for key in range(8))
        assert all(gated.get(key) == key for key in range(8))
        assert gated.admission_rejections == 100
        assert gated.evictions == 0

    def test_frequent_key_eventually_admitted(self):
        cache = LRUTTLCache(maxsize=2, admission="tinylfu")
        cache.put("a", 1)
        cache.put("b", 2)
        # One-shot insert bounces off the gate while residents are hotter.
        for _ in range(3):
            cache.get("a"), cache.get("b")
        cache.put("new", 3)
        assert cache.get("new") is None
        assert cache.admission_rejections == 1
        # But a key *asked for* often enough out-earns the LRU victim.
        for _ in range(10):
            cache.get("hot")  # misses, still counted as frequency signal
        cache.put("hot", 9)
        assert cache.get("hot") == 9
        assert len(cache) == 2

    def test_resident_refresh_always_accepted(self):
        cache = LRUTTLCache(maxsize=2, admission="tinylfu")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh displaces nothing: no gate
        assert cache.get("a") == 10
        assert cache.admission_rejections == 0

    def test_default_cache_has_no_gate(self):
        cache = LRUTTLCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # plain LRU: always admitted
        assert cache.get("c") == 3
        assert cache.admission_rejections == 0
        assert "admission_rejections" in cache.stats()

    def test_expired_entries_purged_before_gating(self):
        clock = FakeClock()
        cache = LRUTTLCache(maxsize=2, ttl=10.0, clock=clock, admission="tinylfu")
        cache.put("a", 1)
        cache.put("b", 2)
        clock.advance(11.0)
        # Both residents are dead: the insert fills freed space, no gate.
        cache.put("c", 3)
        assert cache.get("c") == 3
        assert cache.admission_rejections == 0
        assert cache.expirations == 2


class TestFrequencySketch:
    def test_estimate_counts_accesses(self):
        from repro.serving.cache import FrequencySketch

        sketch = FrequencySketch(width=256, depth=4)
        for _ in range(6):
            sketch.add("key")
        assert sketch.estimate("key") == 6
        assert sketch.estimate("never-seen") == 0

    def test_counters_saturate_at_cap(self):
        from repro.serving.cache import FrequencySketch

        sketch = FrequencySketch(width=256, depth=4)
        for _ in range(50):
            sketch.add("key")
        assert sketch.estimate("key") == 15

    def test_halving_ages_the_sample(self):
        from repro.serving.cache import FrequencySketch

        sketch = FrequencySketch(width=256, depth=4, sample_size=32)
        for _ in range(8):
            sketch.add("old-hot")
        for i in range(24):  # 32nd op triggers the halving
            sketch.add(f"filler-{i}")
        estimate = sketch.estimate("old-hot")
        assert 4 <= estimate <= 6  # halved (collisions may add a little)

    def test_rows_collide_independently(self):
        """Two keys sharing a counter in row 0 share one in row 1 at about
        1/width, not always: the rows are four estimates, not one."""
        from repro.serving.cache import FrequencySketch

        sketch = FrequencySketch(width=64, depth=4)
        rows = [sketch._rows(("all", (0, 1), 10, ("item", i))) for i in range(1000)]
        pairs = both = 0
        for i, a in enumerate(rows):
            for b in rows[i + 1 :]:
                if a[0] == b[0]:
                    pairs += 1
                    both += a[1] == b[1]
        assert pairs > 5_000
        assert both / pairs < 2 / 64

    def test_invalid_params_rejected(self):
        from repro.serving.cache import FrequencySketch

        with pytest.raises(ValueError):
            FrequencySketch(width=0)
        with pytest.raises(ValueError):
            FrequencySketch(depth=0)
