"""Tests for the matching service: fallback chain, cache, swap, batching.

Run against ``MatchingService(ModelStore(bundle))`` — the one-shard
constructor of the one service class; ``test_sharding.py`` runs the same
class over N shards.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.serving import (
    LRUTTLCache,
    MatchingService,
    MatchingServiceConfig,
    MatchRequest,
    ModelStore,
    build_bundle,
)

from repro.core.model import EmbeddingModel
from repro.core.vocab import TokenKind, Vocabulary

from .test_cache import FakeClock


@pytest.fixture()
def service(fresh_store):
    return MatchingService(
        fresh_store, MatchingServiceConfig(default_k=10, cache_ttl=None)
    )


@pytest.fixture()
def uncached(fresh_store):
    return MatchingService(
        fresh_store, MatchingServiceConfig(default_k=10, cache_size=0)
    )


def warm_item(bundle) -> int:
    return int(bundle.table._items[0])


def uncovered_item(bundle) -> int:
    return next(
        int(i) for i in bundle.index.item_ids if int(i) not in bundle.table
    )


class TestFallbackChain:
    def test_warm_item_serves_from_table(self, service, serving_bundle):
        result = service.recommend(warm_item(serving_bundle))
        assert result.tier == "table"
        assert len(result.items) > 0
        np.testing.assert_array_equal(
            result.items, serving_bundle.table.topk(warm_item(serving_bundle), 10)[0]
        )

    def test_table_miss_falls_to_ann(self, service, serving_bundle):
        item = uncovered_item(serving_bundle)
        result = service.recommend(item)
        assert result.tier == "ann"
        single, _ = serving_bundle.ann.topk(item, 10)
        np.testing.assert_array_equal(result.items, single)

    def test_cold_item_uses_si_sum(self, service, tiny_split):
        train, _ = tiny_split
        request = MatchRequest(si_values=dict(train.items[5].si_values))
        result = service.recommend(request)
        assert result.tier == "cold_item"
        assert len(result.items) > 0

    def test_unknown_item_with_si_still_cold_item(self, service, tiny_split):
        train, _ = tiny_split
        request = MatchRequest(
            item_id=10**9, si_values=dict(train.items[5].si_values)
        )
        assert service.recommend(request).tier == "cold_item"

    def test_cold_user_uses_user_types(self, service, tiny_split):
        train, _ = tiny_split
        user = train.users[0]
        request = MatchRequest(gender=user.gender, age_bucket=user.age_bucket)
        result = service.recommend(request)
        assert result.tier == "cold_user"
        assert len(result.items) > 0

    def test_unknown_item_falls_to_popularity(self, service, serving_bundle):
        result = service.recommend(MatchRequest(item_id=10**9))
        assert result.tier == "popularity"
        assert len(result.items) == 10
        assert 10**9 not in result.items

    def test_empty_request_falls_to_popularity(self, service):
        assert service.recommend(MatchRequest()).tier == "popularity"

    def test_untrained_si_falls_to_popularity(self, service):
        request = MatchRequest(si_values={"brand": 987654321})
        assert service.recommend(request).tier == "popularity"

    def test_cold_user_without_user_types_falls_to_popularity(
        self, fitted_sgns, tiny_split
    ):
        # Plain SGNS trains no user-type tokens: demographics can't match.
        train, _ = tiny_split
        store = ModelStore(build_bundle(fitted_sgns.model, train, n_cells=8))
        service = MatchingService(store)
        result = service.recommend(MatchRequest(gender="F"))
        assert result.tier == "popularity"

    @pytest.mark.parametrize(
        "request_",
        [
            MatchRequest(gender="X"),
            MatchRequest(gender="F", age_bucket="90-99"),
            MatchRequest(age_bucket="18-24", purchase_power="ultra"),
        ],
    )
    def test_unknown_demographic_string_falls_to_popularity(self, uncached, request_):
        result = uncached.recommend(request_)
        assert result.tier == "popularity"
        assert len(result.items) == 10
        batch = uncached.recommend_batch([request_, MatchRequest(gender="F")])
        assert [r.tier for r in batch] == ["popularity", "cold_user"]

    def test_int_shorthand(self, service, serving_bundle):
        request_result = service.recommend(
            MatchRequest(item_id=warm_item(serving_bundle))
        )
        int_result = service.recommend(warm_item(serving_bundle))
        np.testing.assert_array_equal(request_result.items, int_result.items)

    def test_invalid_k_rejected(self, service):
        with pytest.raises(ValueError):
            service.recommend(0, k=0)


class TestCaching:
    def test_repeat_request_served_from_cache(self, service, serving_bundle):
        item = warm_item(serving_bundle)
        first = service.recommend(item)
        second = service.recommend(item)
        assert not first.cached
        assert second.cached
        np.testing.assert_array_equal(first.items, second.items)
        assert service.metrics.counter("cache_hit") == 1
        assert service.metrics.counter("cache_miss") == 1

    def test_different_k_is_a_different_entry(self, service, serving_bundle):
        item = warm_item(serving_bundle)
        service.recommend(item, k=5)
        assert not service.recommend(item, k=7).cached

    def test_ttl_expiry_through_service(self, fresh_store):
        clock = FakeClock()
        cache = LRUTTLCache(maxsize=64, ttl=30.0, clock=clock)
        service = MatchingService(fresh_store, cache=cache)
        item = warm_item(fresh_store.current())
        service.recommend(item)
        assert service.recommend(item).cached
        clock.advance(31.0)
        assert not service.recommend(item).cached
        assert cache.expirations == 1

    def test_cache_disabled(self, uncached, serving_bundle):
        item = warm_item(serving_bundle)
        uncached.recommend(item)
        assert not uncached.recommend(item).cached
        assert uncached.cache is None

    def test_cache_hits_are_timed_and_observed(self, service, serving_bundle):
        """Regression: hits used to return latency=0.0 and skip every
        histogram, so snapshot quantiles described only the miss path."""
        item = warm_item(serving_bundle)
        service.recommend(item)
        hit = service.recommend(item)
        assert hit.cached
        assert hit.latency > 0.0
        cache_tier = service.snapshot()["tiers"]["cache"]
        assert cache_tier["count"] == 1.0
        assert cache_tier["p50"] > 0.0

    def test_batch_cache_hits_are_timed_and_observed(
        self, service, serving_bundle
    ):
        item = warm_item(serving_bundle)
        service.recommend_batch([item], 10)
        (hit,) = service.recommend_batch([item], 10)
        assert hit.cached
        assert hit.latency > 0.0
        assert service.snapshot()["tiers"]["cache"]["count"] == 1.0

    def test_swap_invalidates_cache(self, service, serving_bundle):
        item = warm_item(serving_bundle)
        assert service.recommend(item).version == 0
        service.recommend(item)
        service.store.swap(serving_bundle)
        result = service.recommend(item)
        assert not result.cached  # version is part of the key
        assert result.version == 1


class TestBatching:
    def test_batch_matches_single(self, fresh_store, tiny_split, serving_bundle):
        train, _ = tiny_split
        requests = [
            warm_item(serving_bundle),
            uncovered_item(serving_bundle),
            MatchRequest(si_values=dict(train.items[5].si_values)),
            MatchRequest(item_id=10**9),
        ]
        batch_service = MatchingService(
            fresh_store, MatchingServiceConfig(default_k=10, cache_size=0)
        )
        single_service = MatchingService(
            fresh_store, MatchingServiceConfig(default_k=10, cache_size=0)
        )
        batched = batch_service.recommend_batch(requests, 10)
        for request, result in zip(requests, batched):
            single = single_service.recommend(request, 10)
            assert result.tier == single.tier
            np.testing.assert_array_equal(result.items, single.items)

    def test_ann_requests_are_micro_batched(self, uncached, serving_bundle):
        uncovered = [
            int(i)
            for i in serving_bundle.index.item_ids
            if int(i) not in serving_bundle.table
        ][:8]
        results = uncached.recommend_batch(uncovered, 10)
        assert all(r.tier == "ann" for r in results)
        for item, result in zip(uncovered, results):
            np.testing.assert_array_equal(
                result.items, serving_bundle.ann.topk(int(item), 10)[0]
            )

    def test_batch_populates_cache(self, service, serving_bundle):
        items = [warm_item(serving_bundle), uncovered_item(serving_bundle)]
        service.recommend_batch(items, 10)
        assert service.recommend(items[0], 10).cached
        assert service.recommend(items[1], 10).cached


class TestHotSwapAtomicity:
    def test_no_failures_under_interleaved_queries(
        self, fitted_sisg, tiny_split, serving_bundle
    ):
        train, _ = tiny_split
        store = ModelStore(serving_bundle)
        service = MatchingService(
            store, MatchingServiceConfig(default_k=10, cache_size=0)
        )
        other = build_bundle(
            fitted_sisg.model, train, n_cells=12, table_coverage=0.8, seed=1
        )
        requests = [
            warm_item(serving_bundle),
            uncovered_item(serving_bundle),
            MatchRequest(si_values=dict(train.items[5].si_values)),
            MatchRequest(item_id=10**9),
        ]
        failures: list[Exception] = []
        versions: set[int] = set()
        stop = threading.Event()

        def hammer() -> None:
            while not stop.is_set():
                for request in requests:
                    try:
                        result = service.recommend(request, 10)
                        versions.add(result.version)
                        assert len(result.items) > 0
                    except Exception as exc:  # noqa: BLE001 - the test's point
                        failures.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for bundle in (other, serving_bundle, other, serving_bundle):
            store.swap(bundle)
        stop.set()
        for thread in threads:
            thread.join()

        assert failures == []
        assert versions <= {0, 1, 2, 3, 4}
        assert len(versions) >= 2  # queries actually observed a swap
        assert store.version == 4


class TestMetricsWiring:
    def test_request_accounting(self, service, serving_bundle, tiny_split):
        train, _ = tiny_split
        service.recommend(warm_item(serving_bundle))
        service.recommend(warm_item(serving_bundle))  # cache hit
        service.recommend(uncovered_item(serving_bundle))
        service.recommend(MatchRequest(si_values=dict(train.items[5].si_values)))
        service.recommend(MatchRequest(item_id=10**9))
        snap = service.snapshot()
        assert snap["counters"]["requests"] == 5
        assert snap["counters"]["cache_hit"] == 1
        assert snap["counters"]["cache_miss"] == 4
        tier_counts = {t: s["count"] for t, s in snap["tiers"].items()}
        # 4 resolved requests + 1 cache hit (timed under the cache tier).
        assert sum(tier_counts.values()) == 5.0
        assert tier_counts["table"] == 1.0
        assert tier_counts["cache"] == 1.0
        assert snap["cache_hit_rate"] == pytest.approx(0.2)
        assert snap["store_version"] == 0
        assert snap["cache"]["size"] == 4

    def test_model_store_snapshot_keeps_its_shape(self, service, fresh_store):
        """A ``ModelStore``-backed service is the one-shard case, but its
        snapshot stays the unpartitioned one: an ``int`` version, no
        per-shard section, and ``.store`` is the caller's object."""
        snap = service.snapshot()
        assert service.store is fresh_store
        assert snap["store_version"] == 0 and isinstance(snap["store_version"], int)
        assert set(snap) == {
            "counters", "cache_hit_rate", "tiers", "store_version", "cache"
        }

    def test_error_counter(self, service, monkeypatch):
        def boom(*_args, **_kwargs):
            raise RuntimeError("index exploded")

        monkeypatch.setattr(service, "_resolve", boom)
        with pytest.raises(RuntimeError):
            service.recommend(0)
        assert service.metrics.counter("errors") == 1

    def test_latency_recorded(self, uncached, serving_bundle):
        uncached.recommend(warm_item(serving_bundle))
        table = uncached.metrics.snapshot()["tiers"]["table"]
        assert table["p50"] > 0.0


class TestMatchRequest:
    def test_cache_key_is_order_stable(self):
        a = MatchRequest(si_values={"brand": 1, "shop": 2})
        b = MatchRequest(si_values={"shop": 2, "brand": 1})
        assert a.cache_key() == b.cache_key()

    def test_cache_key_distinguishes_fields(self):
        assert MatchRequest(item_id=1).cache_key() != MatchRequest(
            item_id=2
        ).cache_key()
        assert (
            MatchRequest(gender="F").cache_key()
            != MatchRequest(age_bucket="25-30").cache_key()
        )


class TestColdUserCostIsIndependentOfVocabularySize:
    """Nothing on the request path iterates the vocabulary (count-based:
    no wall clock).  After the first cold-user request has derived the
    user-type key table, further ones make no per-token vocabulary call,
    whether the vocabulary has 3k tokens or 13k."""

    COHORTS = [
        MatchRequest(gender="F"),
        MatchRequest(gender="M", age_bucket="25-30"),
        MatchRequest(purchase_power="mid"),
        MatchRequest(gender="F", age_bucket="18-24", purchase_power="low"),
    ]

    @staticmethod
    def count_vocabulary_walks(monkeypatch):
        calls = {"payload_of": 0, "kind_of": 0, "ids_of_kind": 0}
        for name in calls:
            original = getattr(Vocabulary, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(Vocabulary, name, counted)
        return calls

    def serve_100(self, bundle, calls):
        service = MatchingService(
            ModelStore(bundle), MatchingServiceConfig(default_k=10, cache_size=0)
        )
        assert service.recommend(self.COHORTS[0]).tier == "cold_user"  # warm-up
        for name in calls:
            calls[name] = 0
        results = [service.recommend(self.COHORTS[i % 4]) for i in range(100)]
        assert {r.tier for r in results} == {"cold_user"}
        assert calls == {"payload_of": 0, "kind_of": 0, "ids_of_kind": 0}
        return [(r.items.tobytes(), r.scores.tobytes()) for r in results]

    def test_no_vocabulary_walk_after_warm_up(self, serving_bundle, monkeypatch):
        calls = self.count_vocabulary_walks(monkeypatch)
        small = self.serve_100(serving_bundle, calls)

        model = serving_bundle.model
        vocab = model.vocab.copy()
        for value in range(10_000):
            vocab.add(f"padding_{value}", TokenKind.SI, ("padding", value))
        pad = np.zeros((10_000, model.dim))
        padded = EmbeddingModel(
            vocab, np.vstack([model.w_in, pad]), np.vstack([model.w_out, pad])
        )
        big = self.serve_100(dataclasses.replace(serving_bundle, model=padded), calls)
        assert big == small
