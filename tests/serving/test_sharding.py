"""Tests for HBGP-sharded serving: bundles, dispatcher, per-shard metrics.

There is one service class, so "sharded vs unsharded" cannot be the
oracle any more.  Equivalence is anchored twice instead: every shard
count against the tier artifacts themselves (:class:`TestTierOracles`),
and one shard against N shards on a tie-heavy world at every ANN
precision (:class:`TestTieHeavyEquivalence`).
"""

import threading

import numpy as np
import pytest

from repro.core.ann import IVFIndex
from repro.core.coldstart import cold_user_vector, infer_cold_item_vector
from repro.core.model import EmbeddingModel
from repro.core.similarity import SimilarityIndex
from repro.core.vocab import TokenKind
from repro.graph.hbgp import HBGPConfig, PartitionResult, hbgp_partition
from repro.serving import (
    CandidateTable,
    MatchingService,
    MatchingServiceConfig,
    MatchRequest,
    ModelStore,
    ShardedMatchingService,
    ShardedModelStore,
    build_bundle,
    build_candidate_table,
    build_shard_bundle,
    build_shard_bundles,
    evaluate_service_hitrate,
    merge_topk,
    popularity_ranking,
)

N_SHARDS = 3
K = 10
NO_CACHE = MatchingServiceConfig(default_k=K, cache_size=0)


@pytest.fixture(scope="module")
def partition(tiny_split):
    train, _ = tiny_split
    return hbgp_partition(train, HBGPConfig(n_partitions=N_SHARDS))


@pytest.fixture(scope="module")
def exact_flat_bundle(fitted_sisg, tiny_split):
    """Monolithic bundle with exhaustive settings (the equivalence oracle)."""
    train, _ = tiny_split
    return build_bundle(
        fitted_sisg.model, train, n_cells=1, table_coverage=1.0, seed=0
    )


@pytest.fixture(scope="module")
def exact_shard_store(fitted_sisg, tiny_split, partition):
    """Sharded store built with the same exhaustive settings."""
    train, _ = tiny_split
    return ShardedModelStore.build(
        fitted_sisg.model, train, partition, n_cells=1, table_coverage=1.0, seed=0
    )


def fresh_pair(exact_flat_bundle, exact_shard_store):
    """Fresh (one-shard, N-shard) services over the shared builds."""
    unsharded = MatchingService(ModelStore(exact_flat_bundle), NO_CACHE)
    sharded = ShardedMatchingService(exact_shard_store, NO_CACHE)
    return unsharded, sharded


def assert_same_answers(got, want):
    """Byte-identical ``(ids, scores)`` plus tier."""
    assert got.tier == want.tier
    np.testing.assert_array_equal(got.items, want.items)
    np.testing.assert_array_equal(got.scores, want.scores)


def request_mix(train) -> list:
    """One request per routing path, plus a warm item per shard."""
    return [
        MatchRequest(item_id=0),
        MatchRequest(item_id=train.n_items // 2),
        MatchRequest(item_id=train.n_items - 1),
        MatchRequest(si_values=dict(train.items[3].si_values)),
        MatchRequest(gender="F", age_bucket="25-30"),
        MatchRequest(gender="M", purchase_power="high"),
        MatchRequest(item_id=10**9),  # unknown -> popularity
    ]


class TestMergeTopk:
    def test_merges_by_score(self):
        parts = [
            (np.array([1, 2]), np.array([0.9, 0.2])),
            (np.array([3, 4]), np.array([0.5, 0.1])),
        ]
        items, scores = merge_topk(parts, 3)
        np.testing.assert_array_equal(items, [1, 3, 2])
        np.testing.assert_allclose(scores, [0.9, 0.5, 0.2])

    def test_drops_pads_and_nan(self):
        parts = [
            (np.array([1, -1]), np.array([0.9, np.nan])),
            (np.array([2, -1]), np.array([np.nan, np.nan])),
        ]
        items, scores = merge_topk(parts, 5)
        np.testing.assert_array_equal(items, [1])

    def test_ties_break_by_item_id(self):
        parts = [
            (np.array([7, 3]), np.array([0.5, 0.5])),
            (np.array([5]), np.array([0.5])),
        ]
        items, _ = merge_topk(parts, 3)
        np.testing.assert_array_equal(items, [3, 5, 7])

    def test_excludes_item(self):
        parts = [(np.array([1, 2, 3]), np.array([0.9, 0.8, 0.7]))]
        items, _ = merge_topk(parts, 3, exclude_item=1)
        np.testing.assert_array_equal(items, [2, 3])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            merge_topk([(np.array([1]), np.array([0.5]))], 0)


class TestShardBundles:
    def test_tables_partition_the_catalogue(self, exact_shard_store):
        """Shard tables are disjoint and union to the full item set."""
        seen: list[int] = []
        for shard in range(exact_shard_store.n_shards):
            seen.extend(
                int(i) for i in exact_shard_store.current(shard).table.item_ids
            )
        assert len(seen) == len(set(seen))
        n_items = len(exact_shard_store.item_partition)
        assert set(seen) == set(range(n_items))

    def test_rows_match_monolithic_table(
        self, exact_flat_bundle, exact_shard_store
    ):
        """A shard's table row is exactly the monolithic table's row."""
        for shard in range(exact_shard_store.n_shards):
            table = exact_shard_store.current(shard).table
            for item in table.item_ids[:5]:
                got_ids, got_scores = table.topk(int(item), K)
                want_ids, want_scores = exact_flat_bundle.table.topk(int(item), K)
                np.testing.assert_array_equal(got_ids, want_ids)
                np.testing.assert_allclose(got_scores, want_scores)

    def test_coverage_union_matches_monolithic(self, fitted_sisg, tiny_split, partition):
        """Partial coverage: union of shard tables == monolithic table.

        Regression for the coverage cut: it must be taken in one global
        ordering and intersected per shard, not recomputed per shard.
        """
        train, _ = tiny_split
        coverage = 0.7
        flat = build_bundle(
            fitted_sisg.model, train, n_cells=1, table_coverage=coverage, seed=0
        )
        bundles, _assignment = build_shard_bundles(
            fitted_sisg.model, train, partition,
            n_cells=1, table_coverage=coverage, seed=0,
        )
        union = {int(i) for b in bundles for i in b.table.item_ids}
        assert union == {int(i) for i in flat.table.item_ids}

    def test_popularity_slices_merge_to_global(
        self, exact_flat_bundle, exact_shard_store
    ):
        """Per-shard popularity slices merge back into the global ranking."""
        bundles = exact_shard_store.snapshot()
        merged_items, merged_scores = merge_topk(
            [(b.popular_items, b.popular_scores) for b in bundles], 20
        )
        flat_items = exact_flat_bundle.popular_items[:20]
        flat_scores = exact_flat_bundle.popular_scores[:20]
        # The global ranking is stable-argsort (id-ascending on count
        # ties), which is exactly merge_topk's tie rule.
        np.testing.assert_array_equal(merged_items, flat_items)
        np.testing.assert_allclose(merged_scores, flat_scores)

    def test_empty_shard_rejected(self, fitted_sisg, tiny_split):
        train, _ = tiny_split
        with pytest.raises(ValueError):
            build_shard_bundle(
                fitted_sisg.model, train, np.array([], dtype=np.int64)
            )

    def test_serving_assignment_owns_every_item(self, partition):
        assignment = partition.serving_assignment()
        assert np.all(assignment >= 0)
        assert np.all(assignment < partition.n_partitions)

    def test_serving_assignment_maps_orphans_deterministically(self):
        result = PartitionResult(
            item_partition=np.array([0, -1, 1, -1, -1]),
            leaf_partition=np.array([0, 1]),
            partition_frequency=np.array([3.0, 2.0]),
            cut_weight=0.0,
            total_weight=1.0,
        )
        assignment = result.serving_assignment()
        np.testing.assert_array_equal(assignment, [0, 1, 1, 1, 0])
        np.testing.assert_array_equal(result.items_of(0), [0, 4])


class TestRoutingEquivalence:
    """One shard vs three on the shared world (the artifact oracles for
    every shard count are :class:`TestTierOracles`)."""

    def test_scatter_gather_matches_unsharded(
        self, tiny_split, exact_flat_bundle, exact_shard_store
    ):
        """Full coverage + exhaustive ANN: identical (ids, scores, tier)."""
        train, _ = tiny_split
        unsharded, sharded = fresh_pair(exact_flat_bundle, exact_shard_store)
        for request in request_mix(train):
            assert_same_answers(
                sharded.recommend(request, K), unsharded.recommend(request, K)
            )

    def test_batch_matches_single(
        self, tiny_split, exact_flat_bundle, exact_shard_store
    ):
        train, _ = tiny_split
        _unsharded, sharded = fresh_pair(exact_flat_bundle, exact_shard_store)
        requests = request_mix(train)
        batched = sharded.recommend_batch(requests, K)
        for request, from_batch in zip(requests, batched):
            assert_same_answers(from_batch, sharded.recommend(request, K))

    def test_partial_coverage_ann_tier_matches(
        self, fitted_sisg, tiny_split, partition
    ):
        """Uncovered items scatter to the ANN tier and still match."""
        train, _ = tiny_split
        flat = build_bundle(
            fitted_sisg.model, train, n_cells=1, table_coverage=0.8, seed=0
        )
        unsharded = MatchingService(ModelStore(flat), NO_CACHE)
        store = ShardedModelStore.build(
            fitted_sisg.model, train, partition,
            n_cells=1, table_coverage=0.8, seed=0,
        )
        sharded = ShardedMatchingService(store, NO_CACHE)
        uncovered = [
            int(i) for i in flat.index.item_ids if int(i) not in flat.table
        ][:8]
        assert uncovered
        for item in uncovered:
            want = unsharded.recommend(item, K)
            assert want.tier == "ann"
            assert_same_answers(sharded.recommend(item, K), want)

    def test_knows_item(self, tiny_split, exact_flat_bundle, exact_shard_store):
        train, _ = tiny_split
        for service in fresh_pair(exact_flat_bundle, exact_shard_store):
            assert service.knows_item(0)
            assert not service.knows_item(train.n_items + 50)
            assert not service.knows_item(10**9)
            assert not service.knows_item(-1)

    def test_serving_hitrate_matches_unsharded(
        self, tiny_split, exact_flat_bundle, exact_shard_store
    ):
        """Serving-side HR@K does not depend on the shard count."""
        _train, test = tiny_split
        unsharded, sharded = fresh_pair(exact_flat_bundle, exact_shard_store)
        flat_hr = evaluate_service_hitrate(unsharded, test, ks=(5, 10))
        shard_hr = evaluate_service_hitrate(sharded, test, ks=(5, 10))
        assert shard_hr.hit_rates == flat_hr.hit_rates
        assert 0.0 <= shard_hr.hit_rates[10] <= 1.0


class TestTierOracles:
    """Every shard count answers exactly what the tier artifacts say.

    The oracle never touches the service: the full candidate table, the
    exhaustive :class:`SimilarityIndex` scan, the cold-start recipes fed
    to that scan, and the prefix of the global click ranking.
    """

    COVERAGE = 0.8

    @pytest.fixture(scope="class")
    def oracle(self, fitted_sisg, tiny_split):
        train, _ = tiny_split
        index = SimilarityIndex(fitted_sisg.model)
        return (
            fitted_sisg.model,
            train,
            index,
            build_candidate_table(index),
            popularity_ranking(train),
        )

    @pytest.fixture(scope="class", params=[1, 2, 3])
    def service(self, request, fitted_sisg, tiny_split):
        """Exhaustive ANN (one cell), 80% table, ``n`` shards."""
        train, _ = tiny_split
        kwargs = dict(n_cells=1, table_coverage=self.COVERAGE, seed=0)
        if request.param == 1:
            store = ModelStore(build_bundle(fitted_sisg.model, train, **kwargs))
        else:
            partition = hbgp_partition(
                train, HBGPConfig(n_partitions=request.param)
            )
            store = ShardedModelStore.build(
                fitted_sisg.model, train, partition, **kwargs
            )
        return MatchingService(store, NO_CACHE)

    def covered(self, index):
        n = max(1, int(index.n_items * self.COVERAGE))
        return index.item_ids[:n], index.item_ids[n:]

    def test_table_tier_is_the_full_tables_row(self, service, oracle):
        _model, _train, index, table, _pop = oracle
        in_table, _ = self.covered(index)
        items = [int(i) for i in in_table[:: max(1, len(in_table) // 12)]]
        for result, item in zip(service.recommend_batch(items, K), items):
            want_ids, want_scores = table.topk(item, K)
            assert result.tier == "table"
            np.testing.assert_array_equal(result.items, want_ids)
            np.testing.assert_array_equal(result.scores, want_scores)

    def test_ann_tier_is_the_exhaustive_scan(self, service, oracle):
        _model, _train, index, _table, _pop = oracle
        _, uncovered = self.covered(index)
        items = [int(i) for i in uncovered[:12]]
        assert items
        for result, item in zip(service.recommend_batch(items, K), items):
            want_ids, want_scores = index.topk(item, K)
            assert result.tier == "ann"
            np.testing.assert_array_equal(result.items, want_ids)
            # Float32 GEMM vs GEMV: the error scales with the unit
            # vectors, not with the (directional, often near-zero) score.
            np.testing.assert_allclose(result.scores, want_scores, rtol=1e-5, atol=1e-6)

    def test_cold_tiers_are_the_recipe_fed_to_the_scan(self, service, oracle):
        """On a directional model the cold vectors are queries scored
        ``v_q . v'_j``: the served answer is the exact index's."""
        model, train, index, _table, _pop = oracle
        assert model.similarity == index.mode == "directional"
        cold_items = [
            MatchRequest(si_values=dict(train.items[i].si_values))
            for i in (3, 17, 40)
        ]
        cold_users = [
            MatchRequest(gender="F", age_bucket="25-30"),
            MatchRequest(gender="M", purchase_power="high"),
        ]
        vectors = [
            infer_cold_item_vector(model, r.si_values) for r in cold_items
        ] + [
            cold_user_vector(model, r.gender, r.age_bucket, r.purchase_power)
            for r in cold_users
        ]
        tiers = ["cold_item"] * len(cold_items) + ["cold_user"] * len(cold_users)
        results = service.recommend_batch(cold_items + cold_users, K)
        for result, vector, tier in zip(results, vectors, tiers):
            want_ids, want_scores = index.topk_by_vector(vector, K)
            assert result.tier == tier
            np.testing.assert_array_equal(result.items, want_ids)
            np.testing.assert_allclose(result.scores, want_scores, rtol=1e-5)

    def test_popularity_tier_is_the_ranking_prefix(self, service, oracle):
        _model, _train, _index, _table, (ranked, shares) = oracle
        unknown = service.recommend(MatchRequest(item_id=10**9), K)
        assert unknown.tier == "popularity"
        np.testing.assert_array_equal(unknown.items, ranked[:K])
        np.testing.assert_array_equal(unknown.scores, shares[:K])
        empty = service.recommend(MatchRequest(), K)
        np.testing.assert_array_equal(empty.items, ranked[:K])

    def test_one_table_hit_probes_the_table_once(
        self, service, oracle, monkeypatch
    ):
        """The owning shard is resolved and its table read exactly once
        per table-hit request, singles and batches alike."""
        _model, _train, index, _table, _pop = oracle
        item = int(self.covered(index)[0][0])
        calls = []
        real = CandidateTable.topk

        def counting(table, item_id, k):
            calls.append(item_id)
            return real(table, item_id, k)

        monkeypatch.setattr(CandidateTable, "topk", counting)
        assert service.recommend(item, K).tier == "table"
        assert calls == [item]
        service.recommend_batch([item, item], K)
        assert calls == [item] * 3


N_BASES = 5


@pytest.fixture(scope="module")
def tie_world(fitted_sisg, tiny_split):
    """``(model, train)`` where every item sits on one of five directions.

    The shared SISG model (SI and user-type tokens intact, so all five
    tiers stay reachable) with each item vector overwritten by
    ``base[item % 5]``: every query sees ~n/5-way score ties that
    straddle shard boundaries, and equivalence rests entirely on every
    layer ordering by ``(-score, id)``.  (The duplicate-heavy vectors
    also push k-means through its empty-cluster re-seed path.)
    """
    train, _ = tiny_split
    model = fitted_sisg.model
    base = np.random.default_rng(7).normal(size=(N_BASES, model.dim))
    w_in, w_out = model.w_in.copy(), model.w_out.copy()
    for vid in model.vocab.ids_of_kind(TokenKind.ITEM):
        w_in[vid] = w_out[vid] = base[model.vocab.item_id_of(int(vid)) % N_BASES]
    return EmbeddingModel(model.vocab, w_in, w_out), train


class TestTieHeavyEquivalence:
    """Scatter-gather over N shards must equal one shard under massive ties."""

    @pytest.fixture(scope="class")
    def tie_indexes(self, tie_world):
        model, _train = tie_world
        full = SimilarityIndex(model, mode="cosine")
        full_ivf = IVFIndex(full, n_cells=4, n_probe=4, seed=0)
        shard_anns = [
            IVFIndex(
                full.restrict(full.item_ids[full.item_ids % N_SHARDS == shard]),
                n_cells=4,
                n_probe=4,
                seed=0,
            )
            for shard in range(N_SHARDS)
        ]
        return full, full_ivf, shard_anns

    def test_fixture_is_tie_heavy(self, tie_indexes):
        full, full_ivf, _anns = tie_indexes
        _ids, scores = full_ivf.topk(int(full.item_ids[0]), K)
        assert len(np.unique(scores)) < len(scores)

    def test_scatter_matches_unsharded(self, tie_indexes):
        full, full_ivf, shard_anns = tie_indexes
        for item in full.item_ids[::7].tolist():
            want_ids, want_scores = full_ivf.topk(item, K)
            vector = full.query_vector(item)[None, :]
            exclude = np.asarray([item], dtype=np.int64)
            parts = []
            for ann in shard_anns:
                ids, scores = ann.topk_by_vector_batch(
                    vector, K, exclude_items=exclude
                )
                parts.append((ids[0], scores[0]))
            got_ids, got_scores = merge_topk(parts, K, exclude_item=item)
            np.testing.assert_array_equal(got_ids, want_ids)
            np.testing.assert_array_equal(got_scores, want_scores)

    def test_batch_matches_single_on_ties(self, tie_indexes):
        full, full_ivf, _anns = tie_indexes
        queries = full.item_ids[::5]
        batch_ids, batch_scores = full_ivf.topk_batch(queries, K)
        for row, item in enumerate(queries):
            single_ids, single_scores = full_ivf.topk(int(item), K)
            valid = batch_ids[row] >= 0
            np.testing.assert_array_equal(batch_ids[row][valid], single_ids)
            np.testing.assert_array_equal(
                batch_scores[row][valid], single_scores
            )

    @pytest.mark.parametrize("precision", ["float32", "int8", "pq"])
    def test_one_shard_equals_n_shards_on_every_tier(self, tie_world, precision):
        """All five tiers, singles and 32-batches, byte for byte."""
        model, train = tie_world
        kwargs = dict(
            n_cells=4, n_probe=4, table_coverage=0.5, seed=0,
            ann_precision=precision,
        )
        flat = build_bundle(model, train, **kwargs)
        index = SimilarityIndex(model)
        assignment = np.arange(train.n_items) % N_SHARDS
        store = ShardedModelStore(
            [
                build_shard_bundle(
                    model, train, np.flatnonzero(assignment == shard),
                    index=index, **kwargs,
                )
                for shard in range(N_SHARDS)
            ],
            assignment,
        )
        one = MatchingService(ModelStore(flat), NO_CACHE)
        many = ShardedMatchingService(store, NO_CACHE)

        uncovered = [int(i) for i in flat.index.item_ids if int(i) not in flat.table]
        requests = (
            [int(i) for i in flat.table.item_ids[:8]]
            + uncovered[:10]
            + [MatchRequest(si_values=dict(train.items[i].si_values)) for i in range(6)]
            + [
                MatchRequest(gender="F", age_bucket="25-30"),
                MatchRequest(gender="M", purchase_power="high"),
                MatchRequest(age_bucket="18-24"),
            ]
            + [MatchRequest(item_id=10**9), MatchRequest(), MatchRequest(item_id=-4)]
        )
        want = [one.recommend(request, K) for request in requests]
        assert {result.tier for result in want} == {
            "table", "ann", "cold_item", "cold_user", "popularity"
        }
        for request, expected in zip(requests, want):
            assert_same_answers(many.recommend(request, K), expected)
        for service in (one, many):
            for start in range(0, len(requests), 32):
                chunk = requests[start : start + 32]
                for got, expected in zip(
                    service.recommend_batch(chunk, K), want[start : start + 32]
                ):
                    assert_same_answers(got, expected)


class TestShardSwaps:
    def make_service(self, store, cache_size=256):
        return ShardedMatchingService(
            store, MatchingServiceConfig(default_k=K, cache_size=cache_size)
        )

    def test_swap_touches_one_shard(self, fitted_sisg, tiny_split, partition):
        train, _ = tiny_split
        store = ShardedModelStore.build(
            fitted_sisg.model, train, partition, n_cells=1, seed=0
        )
        before = store.snapshot()
        store.refresh_shard(0, fitted_sisg.model, train, n_cells=1, seed=1)
        after = store.snapshot()
        assert store.versions == [1, 0, 0]
        assert after[0] is not before[0]
        for shard in range(1, store.n_shards):
            assert after[shard] is before[shard]

    def test_cold_tiers_read_the_newest_model_after_uneven_rebuilds(
        self, fitted_sisg, tiny_split, monkeypatch
    ):
        """Windows touching shards 0, 0, then 1 leave versions ``[2, 1]``
        with the newest model on shard 1: cold requests must be answered
        from it, not from the shard with the highest version."""
        import repro.serving.sharding as sharding_module

        train, _ = tiny_split
        base = fitted_sisg.model
        two_shards = hbgp_partition(train, HBGPConfig(n_partitions=2))
        store = ShardedModelStore.build(base, train, two_shards, n_cells=1, seed=0)
        models = [
            EmbeddingModel(base.vocab, base.w_in * scale, base.w_out, base.similarity)
            for scale in (1.5, 2.0, 2.5)
        ]
        for shard, model in zip((0, 0, 1), models):
            store.refresh_shard(shard, model, train, n_cells=1, seed=0)
        assert store.versions == [2, 1]
        assert store.model is models[-1]
        used = []
        for name in ("infer_cold_item_vector", "cold_user_vector"):
            real = getattr(sharding_module, name)

            def spy(model, *args, _real=real, **kwargs):
                used.append(model)
                return _real(model, *args, **kwargs)

            monkeypatch.setattr(sharding_module, name, spy)
        service = self.make_service(store, cache_size=0)
        results = service.recommend_batch(
            [
                MatchRequest(si_values=dict(train.items[3].si_values)),
                MatchRequest(gender="F", age_bucket="25-30"),
            ],
            K,
        )
        assert [r.tier for r in results] == ["cold_item", "cold_user"]
        assert len(used) == 2 and all(model is models[-1] for model in used)

    def test_table_cache_survives_other_shards_swap(
        self, fitted_sisg, tiny_split, partition
    ):
        """Swapping shard 0 must not cold-start shard 1's cached answers."""
        train, _ = tiny_split
        store = ShardedModelStore.build(
            fitted_sisg.model, train, partition, n_cells=1, seed=0
        )
        service = self.make_service(store)
        other_item = int(store.current(1).table.item_ids[0])
        service.recommend(other_item, K)
        service.swap_shard(0, store.current(0))
        assert service.recommend(other_item, K).cached

    def test_scattered_cache_invalidated_by_any_swap(
        self, fitted_sisg, tiny_split, partition
    ):
        train, _ = tiny_split
        store = ShardedModelStore.build(
            fitted_sisg.model, train, partition, n_cells=1, seed=0
        )
        service = self.make_service(store)
        cold = MatchRequest(si_values=dict(train.items[3].si_values))
        service.recommend(cold, K)
        assert service.recommend(cold, K).cached
        service.swap_shard(2, store.current(2))
        assert not service.recommend(cold, K).cached

    def test_swap_under_concurrent_requests(
        self, fitted_sisg, tiny_split, partition
    ):
        """Hammer shards 1+2 while shard 0 swaps repeatedly: no failures,
        other shards' generations and answers untouched."""
        train, _ = tiny_split
        store = ShardedModelStore.build(
            fitted_sisg.model, train, partition, n_cells=1, seed=0
        )
        service = self.make_service(store, cache_size=0)
        probes = [
            int(store.current(shard).table.item_ids[0]) for shard in (1, 2)
        ]
        baseline = {
            item: service.recommend(item, K).items.copy() for item in probes
        }
        replacement = store.current(0)
        failures: list[Exception] = []
        stop = threading.Event()

        def hammer(item: int) -> None:
            while not stop.is_set():
                try:
                    result = service.recommend(item, K)
                    np.testing.assert_array_equal(result.items, baseline[item])
                    assert result.version == 0  # owning shard never swapped
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=hammer, args=(i,)) for i in probes]
        for thread in threads:
            thread.start()
        for _ in range(20):
            service.swap_shard(0, replacement)
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures
        assert store.versions[0] == 20
        assert store.versions[1:] == [0, 0]


class TestObservability:
    def test_snapshot_shape(self, tiny_split, exact_flat_bundle, exact_shard_store):
        train, _ = tiny_split
        _unsharded, sharded = fresh_pair(exact_flat_bundle, exact_shard_store)
        for request in request_mix(train):
            sharded.recommend(request, K)
        snap = sharded.snapshot()
        assert snap["n_shards"] == N_SHARDS
        assert snap["store_version"] == [0] * N_SHARDS
        assert len(snap["shards"]) == N_SHARDS
        assert snap["counters"]["requests"] == len(request_mix(train))
        table_hits = sum(
            shard["counters"].get("table_hits", 0) for shard in snap["shards"]
        )
        assert table_hits == 3  # the three warm items, each on its shard
        gathers = sum(
            shard["counters"].get("gathers", 0) for shard in snap["shards"]
        )
        assert gathers == 3 * N_SHARDS  # cold item + 2 cold users scatter

    def test_batch_of_table_misses_gathers_once_per_shard(
        self, fitted_sisg, tiny_split
    ):
        """One micro-batched scatter: each shard gathers once, timed once."""
        train, _ = tiny_split
        partition = hbgp_partition(train, HBGPConfig(n_partitions=2))
        store = ShardedModelStore.build(
            fitted_sisg.model, train, partition, n_cells=4, table_coverage=0.5, seed=0
        )
        covered = {
            int(i) for bundle in store.snapshot() for i in bundle.table.item_ids
        }
        misses = [
            int(i)
            for i in store.current(0).model.vocab.item_ids()
            if int(i) not in covered
        ][:8]
        assert len(misses) == 8
        service = ShardedMatchingService(store, NO_CACHE)
        results = service.recommend_batch(misses, K)
        assert [r.tier for r in results] == ["ann"] * len(misses)
        for metrics in service.shard_metrics:
            assert metrics.counter("gathers") == 1
            assert metrics.snapshot()["tiers"]["gather"]["count"] == 1
