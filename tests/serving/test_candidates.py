"""Tests for the candidate-table serving artifact."""

import math

import numpy as np
import pytest

import repro.serving.candidates as candidates_module
from repro.core.model import EmbeddingModel
from repro.core.similarity import SimilarityIndex
from repro.core.vocab import TokenKind, Vocabulary
from repro.data.schema import ITEM_SI_FEATURES, BehaviorDataset, ItemMeta
from repro.serving.candidates import CandidateTable, build_candidate_table


def loop_topk(index, item_id, k):
    """The exact top-k by definition: one GEMV, then a full sort of
    every other item by ``(-score, id)``."""
    row = index._item_row[int(item_id)]
    scores = index._candidates @ index._queries[row]
    order = np.lexsort((index._item_ids, -scores))
    order = order[order != row][:k]
    return index._item_ids[order], scores[order]


def loop_candidate_table(index, k=50, items=None):
    """The reference build: one exact top-k per row.

    The block build must match it byte for byte.
    """
    item_ids = index.item_ids if items is None else np.asarray(items, dtype=np.int64)
    candidates = np.full((len(item_ids), k), -1, dtype=np.int64)
    scores = np.full((len(item_ids), k), np.nan)
    for row, item_id in enumerate(item_ids):
        ids, top = loop_topk(index, item_id, k)
        candidates[row, : len(ids)] = ids
        scores[row, : len(ids)] = top
    return CandidateTable(item_ids.copy(), candidates, scores)


def assert_same_table(got, want):
    assert got.item_ids.tobytes() == want.item_ids.tobytes()
    assert got._candidates.tobytes() == want._candidates.tobytes()
    assert got._scores.tobytes() == want._scores.tobytes()


def hand_world(w_in, w_out, shops, brands):
    """``(model, dataset)`` whose item ``i`` has vectors ``w_in[i]`` /
    ``w_out[i]`` and the given shop and brand."""
    vocab = Vocabulary()
    for item_id in range(len(w_in)):
        vocab.add(f"item_{item_id}", TokenKind.ITEM, item_id, count=1)
    items = [
        ItemMeta(i, {**dict.fromkeys(ITEM_SI_FEATURES, 0), "shop": int(s), "brand": int(b)})
        for i, (s, b) in enumerate(zip(shops, brands))
    ]
    return (
        EmbeddingModel(vocab, w_in, w_out),
        BehaviorDataset(items, [], [], validate=False),
    )


def tie_world(n_items=90, dim=6, seed=3):
    """Items on four directions, every ninth item an all-zero row: scores
    tie many ways, and the zero rows tie at exactly 0.0 for every query."""
    rng = np.random.default_rng(seed)
    bases = rng.normal(size=(4, dim))
    w_in = bases[np.arange(n_items) % 4].copy()
    w_out = bases[(np.arange(n_items) * 3) % 4].copy()
    w_in[::9] = 0.0
    w_out[::9] = 0.0
    return hand_world(w_in, w_out, rng.integers(0, 5, n_items), rng.integers(0, 4, n_items))


@pytest.fixture(scope="module")
def worlds(fitted_sisg):
    """A trained model, and a tie-heavy hand-made catalogue."""
    return {"trained": fitted_sisg.model, "ties": tie_world()[0]}


class TestBlockBuildEqualsLoop:
    """The block build is the per-row loop's table, byte for byte."""

    @pytest.mark.parametrize("world", ["trained", "ties"])
    @pytest.mark.parametrize("mode", ["cosine", "directional"])
    @pytest.mark.parametrize("coverage", [1.0, 0.9, 0.2])
    def test_block_build_equals_loop(self, worlds, world, mode, coverage):
        index = SimilarityIndex(worlds[world], mode=mode)
        items = index.item_ids[: max(1, int(index.n_items * coverage))]
        for k in (1, 10):
            assert_same_table(
                build_candidate_table(index, k, items),
                loop_candidate_table(index, k, items),
            )

    @pytest.mark.parametrize("world", ["trained", "ties"])
    @pytest.mark.parametrize("mode", ["cosine", "directional"])
    def test_k_beyond_the_catalogue(self, worlds, world, mode):
        """``k`` > n_items: every row ends in pads."""
        index = SimilarityIndex(worlds[world], mode=mode)
        k = index.n_items + 5
        table = build_candidate_table(index, k)
        assert_same_table(table, loop_candidate_table(index, k))
        assert np.all(table._candidates[:, -6:] == -1)

    @pytest.mark.parametrize("mode", ["cosine", "directional"])
    def test_fetch_boundary_inside_a_tie(self, mode):
        """The top-``k`` cut falls inside a tied group: the members that
        get in are the lowest ids, as in the full sort."""
        model, _ = tie_world()
        index = SimilarityIndex(model, mode=mode)
        for k in (5, 10, 20):
            assert_same_table(
                build_candidate_table(index, k), loop_candidate_table(index, k)
            )

    @pytest.mark.parametrize("n_items", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["cosine", "directional"])
    def test_tiny_catalogues(self, n_items, mode):
        model, _ = hand_world(
            np.eye(3)[:n_items] + 0.1, np.eye(3)[::-1][:n_items] + 0.1,
            [0] * n_items, [0] * n_items,
        )
        index = SimilarityIndex(model, mode=mode)
        for k in (1, 4):
            got = build_candidate_table(index, k)
            assert_same_table(got, loop_candidate_table(index, k))
        if n_items == 1:  # nothing to recommend: a pad row, never the self entry
            candidates, scores = got.lookup(0)
            assert np.all(candidates == -1) and np.all(np.isnan(scores))

    def test_no_rows(self, worlds):
        table = build_candidate_table(
            SimilarityIndex(worlds["trained"]), items=np.empty(0, dtype=np.int64)
        )
        assert len(table) == 0 and table._candidates.shape == (0, 50)

    @pytest.mark.parametrize("world", ["trained", "ties"])
    def test_rows_around_a_block_boundary(self, worlds, world, monkeypatch):
        index = SimilarityIndex(worlds[world], mode="directional")
        block = 7
        monkeypatch.setattr(candidates_module, "_BLOCK_BYTES", block * 4 * index.n_items)
        for n_rows in (block - 1, block, block + 1, 3 * block + 1):
            items = index.item_ids[:n_rows]
            assert_same_table(
                build_candidate_table(index, 10, items),
                loop_candidate_table(index, 10, items),
            )


class TestTieSafeTopk:
    """On a tie-heavy catalogue every top-k entry point cuts ties by
    ascending id, so a shallower answer is a prefix of a deeper one."""

    @pytest.mark.parametrize("mode", ["cosine", "directional"])
    def test_topk_is_a_prefix_of_a_deeper_topk(self, mode):
        index = SimilarityIndex(tie_world()[0], mode=mode)
        n = index.n_items
        for item in index.item_ids:
            deep_ids, deep_scores = index.topk(int(item), n)
            for k in (5, 10, 20, 30):
                ids, scores = index.topk(int(item), k)
                assert ids.tolist() == deep_ids[:k].tolist()
                assert scores.tobytes() == deep_scores[:k].tobytes()

    @pytest.mark.parametrize("mode", ["cosine", "directional"])
    def test_batch_and_vector_paths_agree_with_topk(self, mode):
        index = SimilarityIndex(tie_world()[0], mode=mode)
        items = index.item_ids
        for k in (5, 20):
            batch = index.topk_batch(items, k)
            for row, item in enumerate(items):
                want = index.topk(int(item), k)[0]
                assert batch[row].tolist() == want.tolist()
            for item in items[:20]:
                vector = index.query_vector(int(item))
                got = index.topk_by_vector(vector, index.n_items)[0]
                want = index.topk_by_vector(vector, k)[0]
                assert want.tolist() == got[:k].tolist()


class TestBlockCalls:
    def test_one_block_call_per_block_and_no_single_topk(self, fitted_sgns, monkeypatch):
        """Counted, not timed: N rows cost ceil(N / rows-per-block)
        ``topk_block`` calls and no per-row ``topk``."""
        index = fitted_sgns.index
        calls = {"topk": 0, "topk_block": 0}
        for name in calls:
            original = getattr(SimilarityIndex, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(SimilarityIndex, name, counted)
        rows_per_block = 16
        monkeypatch.setattr(
            candidates_module, "_BLOCK_BYTES", rows_per_block * 4 * index.n_items
        )
        n_rows = index.n_items
        build_candidate_table(index, k=10)
        assert calls == {"topk": 0, "topk_block": math.ceil(n_rows / rows_per_block)}


@pytest.fixture(scope="module")
def table(fitted_sgns):
    return build_candidate_table(fitted_sgns.index, k=15)


class TestConfig:
    """The table's one build setting is its depth ``k``."""

    def test_defaults_valid(self, fitted_sgns):
        assert build_candidate_table(fitted_sgns.index).k == 50

    @pytest.mark.parametrize("field,value", [("k", 0), ("k", -1)])
    def test_invalid_rejected(self, fitted_sgns, field, value):
        with pytest.raises(ValueError):
            build_candidate_table(fitted_sgns.index, **{field: value})


class TestBuild:
    def test_covers_all_index_items(self, table, fitted_sgns):
        assert len(table) == fitted_sgns.index.n_items

    def test_lookup_matches_index_without_filters(self, table, fitted_sgns):
        index = fitted_sgns.index
        for query in index.item_ids[:20]:
            want_ids, want_scores = index.topk(int(query), 15)
            got_ids, got_scores = table.topk(int(query), 15)
            np.testing.assert_array_equal(got_ids, want_ids)
            np.testing.assert_array_equal(got_scores, want_scores)

    def test_no_self_recommendation(self, table):
        for item in list(table._row)[:20]:
            candidates, _ = table.lookup(item)
            assert item not in candidates[candidates >= 0]

    def test_answers_only_up_to_its_depth(self, table):
        item = int(table.item_ids[0])
        assert table.answers(item, table.k)
        assert not table.answers(item, table.k + 1)
        assert not table.answers(10**9, 1)


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

    def test_pad_scores_are_nan_not_zero(self, fitted_sgns):
        # A row deeper than the catalogue guarantees pads.
        index = fitted_sgns.index
        deep = build_candidate_table(index, k=index.n_items + 3)
        for item in list(deep._row)[:50]:
            candidates, scores = deep.lookup(item)
            pads = candidates < 0
            assert pads.sum() == 4
            assert np.all(np.isnan(scores[pads]))
            assert not np.isnan(scores[~pads]).any()

    def test_padded_roundtrip_preserves_nan(self, fitted_sgns, tmp_path):
        index = fitted_sgns.index
        deep = build_candidate_table(index, k=index.n_items + 3)
        path = tmp_path / "deep.npz"
        deep.save(path)
        loaded = CandidateTable.load(path)
        for item in list(deep._row)[:20]:
            a, sa = deep.lookup(item)
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
