"""Tests for the candidate-table serving artifact."""

import numpy as np
import pytest

from repro.serving.candidates import (
    CandidateTable,
    CandidateTableConfig,
    build_candidate_table,
)


@pytest.fixture(scope="module")
def table(fitted_sgns, tiny_split):
    train, _ = tiny_split
    return build_candidate_table(
        fitted_sgns.index, train, CandidateTableConfig(k=15)
    )


class TestConfig:
    def test_defaults_valid(self):
        CandidateTableConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [("k", 0), ("fetch_factor", 0), ("max_per_shop", 0), ("max_per_brand", -1)],
    )
    def test_invalid_rejected(self, field, value):
        cfg = CandidateTableConfig()
        setattr(cfg, field, value)
        with pytest.raises(ValueError):
            cfg.validate()


class TestBuild:
    def test_covers_all_index_items(self, table, fitted_sgns):
        assert len(table) == fitted_sgns.index.n_items

    def test_lookup_matches_index_without_filters(self, fitted_sgns, tiny_split):
        train, _ = tiny_split
        unfiltered = build_candidate_table(
            fitted_sgns.index,
            train,
            CandidateTableConfig(k=10, max_per_shop=None, max_per_brand=None),
        )
        query = int(fitted_sgns.index.item_ids[0])
        expected, _ = fitted_sgns.index.topk(query, 10)
        got, _ = unfiltered.topk(query, 10)
        np.testing.assert_array_equal(got, expected)

    def test_no_self_recommendation(self, table):
        for item in list(table._row)[:20]:
            candidates, _ = table.lookup(item)
            assert item not in candidates[candidates >= 0]

    def test_shop_diversity_enforced(self, fitted_sgns, tiny_split):
        train, _ = tiny_split
        diverse = build_candidate_table(
            fitted_sgns.index,
            train,
            CandidateTableConfig(k=15, max_per_shop=2, max_per_brand=None),
        )
        shop = {i.item_id: i.si_values["shop"] for i in train.items}
        for item in list(diverse._row)[:20]:
            candidates, _ = diverse.lookup(item)
            valid = candidates[candidates >= 0]
            counts = {}
            for c in valid:
                counts[shop[int(c)]] = counts.get(shop[int(c)], 0) + 1
            assert all(v <= 2 for v in counts.values())

    def test_min_score_floor(self, fitted_sgns, tiny_split):
        train, _ = tiny_split
        strict = build_candidate_table(
            fitted_sgns.index,
            train,
            CandidateTableConfig(k=15, min_score=0.99, max_per_shop=None,
                                 max_per_brand=None),
        )
        query = int(fitted_sgns.index.item_ids[0])
        candidates, scores = strict.lookup(query)
        kept = candidates >= 0
        assert np.all(scores[kept] >= 0.99)


class TestServe:
    def test_lookup_unknown_raises(self, table):
        with pytest.raises(KeyError):
            table.lookup(10**9)

    def test_topk_truncation(self, table):
        query = int(list(table._row)[0])
        items, scores = table.topk(query, 5)
        assert len(items) <= 5
        assert len(items) == len(scores)

    def test_topk_batch_interface(self, table):
        queries = np.asarray(list(table._row)[:4], dtype=np.int64)
        out = table.topk_batch(queries, k=7)
        assert out.shape == (4, 7)

    def test_evaluator_compatible(self, table, tiny_split):
        from repro.eval.hitrate import evaluate_hitrate

        _, test = tiny_split
        result = evaluate_hitrate(table, test, ks=(10,), name="table")
        assert 0.0 <= result.hit_rates[10] <= 1.0

    def test_save_load_roundtrip(self, table, tmp_path):
        path = tmp_path / "candidates.npz"
        table.save(path)
        loaded = CandidateTable.load(path)
        query = int(list(table._row)[0])
        a, sa = table.lookup(query)
        b, sb = loaded.lookup(query)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(sa, sb)  # NaN pads compare equal

    def test_pad_scores_are_nan_not_zero(self, fitted_sgns, tiny_split):
        train, _ = tiny_split
        # A high floor guarantees short rows, hence pads.
        strict = build_candidate_table(
            fitted_sgns.index,
            train,
            CandidateTableConfig(k=15, min_score=0.99, max_per_shop=None,
                                 max_per_brand=None),
        )
        padded = False
        for item in list(strict._row)[:50]:
            candidates, scores = strict.lookup(item)
            pads = candidates < 0
            if pads.any():
                padded = True
                assert np.all(np.isnan(scores[pads]))
            assert not np.isnan(scores[~pads]).any()
        assert padded, "expected at least one padded row under min_score=0.99"

    def test_padded_roundtrip_preserves_nan(self, fitted_sgns, tiny_split, tmp_path):
        train, _ = tiny_split
        strict = build_candidate_table(
            fitted_sgns.index,
            train,
            CandidateTableConfig(k=15, min_score=0.99, max_per_shop=None,
                                 max_per_brand=None),
        )
        path = tmp_path / "strict.npz"
        strict.save(path)
        loaded = CandidateTable.load(path)
        for item in list(strict._row)[:20]:
            a, sa = strict.lookup(item)
            b, sb = loaded.lookup(item)
            np.testing.assert_array_equal(a, b)
            np.testing.assert_allclose(sa, sb)

    def test_topk_batch_matches_per_item_lookup(self, table):
        known = np.asarray(list(table._row)[:10], dtype=np.int64)
        queries = np.concatenate([known, [10**9, -7]])  # unknown ids pad
        out = table.topk_batch(queries, k=8)
        for row, item in enumerate(queries):
            if int(item) in table:
                expected = table.lookup(int(item))[0][:8]
                np.testing.assert_array_equal(out[row], expected)
            else:
                assert np.all(out[row] == -1)

    def test_topk_batch_empty_queries(self, table):
        out = table.topk_batch(np.empty(0, dtype=np.int64), k=5)
        assert out.shape == (0, 5)

    def test_subset(self, table):
        keep = np.asarray(list(table._row)[:6], dtype=np.int64)
        small = table.subset(keep)
        assert len(small) == 6
        for item in keep:
            a, sa = table.lookup(int(item))
            b, sb = small.lookup(int(item))
            np.testing.assert_array_equal(a, b)
            np.testing.assert_allclose(sa, sb)
        with pytest.raises(KeyError):
            small.lookup(int(list(table._row)[10]))

    def test_subset_unknown_item_rejected(self, table):
        with pytest.raises(ValueError):
            table.subset(np.asarray([10**9]))
