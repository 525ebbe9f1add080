"""Tests for the candidate-table serving artifact."""

import itertools
import math

import numpy as np
import pytest

import repro.serving.candidates as candidates_module
from repro.core.model import EmbeddingModel
from repro.core.similarity import SimilarityIndex
from repro.core.vocab import TokenKind, Vocabulary
from repro.data.schema import ITEM_SI_FEATURES, BehaviorDataset, ItemMeta
from repro.serving.candidates import (
    CandidateTable,
    CandidateTableConfig,
    build_candidate_table,
)


def loop_topk(index, item_id, k):
    """The 1-D top-k the table was first built on: one GEMV, one 1-D
    ``argpartition`` and one ``lexsort`` by ``(-score, id)``."""
    row = index._item_row[int(item_id)]
    scores = index._candidates @ index._queries[row]
    scores[row] = -np.inf
    k = min(k, len(scores) - 1)
    if k <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    top = np.argpartition(-scores, k - 1)[:k]
    top = top[np.lexsort((index._item_ids[top], -scores[top]))]
    return index._item_ids[top], scores[top]


def loop_candidate_table(index, dataset, config=None, items=None):
    """The reference build: one top-k and one dict-counting walk per row.

    This is the per-row loop ``build_candidate_table`` ran before it went
    a block of rows at a time; it lives here as the oracle the block
    build must match byte for byte.
    """
    config = config or CandidateTableConfig()
    item_ids = index.item_ids if items is None else np.asarray(items, dtype=np.int64)
    k = config.k
    fetch = min(k * config.fetch_factor, max(index.n_items - 1, 1))
    shop = np.asarray([item.si_values["shop"] for item in dataset.items])
    brand = np.asarray([item.si_values["brand"] for item in dataset.items])
    candidates = np.full((len(item_ids), k), -1, dtype=np.int64)
    scores = np.full((len(item_ids), k), np.nan)
    for row, item_id in enumerate(item_ids):
        raw_items, raw_scores = loop_topk(index, item_id, fetch)
        shop_counts: dict[int, int] = {}
        brand_counts: dict[int, int] = {}
        kept = 0
        for cand, score in zip(raw_items, raw_scores):
            cand = int(cand)
            if config.min_score is not None and score < config.min_score:
                break
            s, b = int(shop[cand]), int(brand[cand])
            if config.max_per_shop is not None:
                if shop_counts.get(s, 0) >= config.max_per_shop:
                    continue
            if config.max_per_brand is not None:
                if brand_counts.get(b, 0) >= config.max_per_brand:
                    continue
            shop_counts[s] = shop_counts.get(s, 0) + 1
            brand_counts[b] = brand_counts.get(b, 0) + 1
            candidates[row, kept] = cand
            scores[row, kept] = score
            kept += 1
            if kept == k:
                break
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


CAPS = [None, 1, 2, 10]


@pytest.fixture(scope="module")
def worlds(fitted_sisg, tiny_split):
    """A trained model over the tiny world's real shops and brands, and a
    tie-heavy hand-made catalogue with few shops and brands."""
    return {"trained": (fitted_sisg.model, tiny_split[0]), "ties": tie_world()}


class TestBlockBuildEqualsLoop:
    """The block build is the per-row loop's table, byte for byte."""

    @pytest.mark.parametrize("world", ["trained", "ties"])
    @pytest.mark.parametrize("mode", ["cosine", "directional"])
    @pytest.mark.parametrize("coverage", [1.0, 0.9, 0.2])
    @pytest.mark.parametrize("cut", [False, True])
    def test_every_cap_combination(self, worlds, world, mode, coverage, cut):
        model, dataset = worlds[world]
        index = SimilarityIndex(model, mode=mode)
        items = index.item_ids[: max(1, int(index.n_items * coverage))]
        min_score = None
        if cut:  # the median raw score of a few rows cuts many rows short
            raw = [loop_topk(index, item, 40)[1] for item in items[:5]]
            min_score = float(np.median(np.concatenate(raw)))
        for shop_cap, brand_cap in itertools.product(CAPS, CAPS):
            config = CandidateTableConfig(
                k=10, max_per_shop=shop_cap, max_per_brand=brand_cap, min_score=min_score
            )
            want = loop_candidate_table(index, dataset, config, items)
            assert_same_table(build_candidate_table(index, dataset, config, items), want)
            if cut:
                assert (want._candidates < 0).any()

    @pytest.mark.parametrize("world", ["trained", "ties"])
    @pytest.mark.parametrize("mode", ["cosine", "directional"])
    def test_k_beyond_the_catalogue(self, worlds, world, mode):
        """``k`` > n_items, so ``fetch`` is clamped to n_items - 1."""
        model, dataset = worlds[world]
        index = SimilarityIndex(model, mode=mode)
        for caps in [(None, None), (2, 10), (1, 1)]:
            config = CandidateTableConfig(
                k=index.n_items + 5, max_per_shop=caps[0], max_per_brand=caps[1]
            )
            assert_same_table(
                build_candidate_table(index, dataset, config),
                loop_candidate_table(index, dataset, config),
            )

    @pytest.mark.parametrize("mode", ["cosine", "directional"])
    def test_fetch_boundary_inside_a_tie(self, mode):
        """``fetch == k`` puts the partition's cut in the output: where a
        tied group straddles it, ``argpartition`` picks which members get
        in (not the lowest ids), and the block build must pick the same."""
        model, dataset = tie_world()
        index = SimilarityIndex(model, mode=mode)
        for k, caps in itertools.product([5, 10, 20], [(None, None), (2, 10)]):
            config = CandidateTableConfig(
                k=k, fetch_factor=1, max_per_shop=caps[0], max_per_brand=caps[1]
            )
            assert_same_table(
                build_candidate_table(index, dataset, config),
                loop_candidate_table(index, dataset, config),
            )

    @pytest.mark.parametrize("n_items", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["cosine", "directional"])
    def test_tiny_catalogues(self, n_items, mode):
        model, dataset = hand_world(
            np.eye(3)[:n_items] + 0.1, np.eye(3)[::-1][:n_items] + 0.1,
            [0] * n_items, [0] * n_items,
        )
        index = SimilarityIndex(model, mode=mode)
        for config in [CandidateTableConfig(k=4), CandidateTableConfig(k=1, max_per_shop=1)]:
            got = build_candidate_table(index, dataset, config)
            assert_same_table(got, loop_candidate_table(index, dataset, config))
        if n_items == 1:  # nothing to recommend: a pad row, never the self entry
            candidates, scores = got.lookup(0)
            assert np.all(candidates == -1) and np.all(np.isnan(scores))

    def test_no_rows(self, worlds):
        model, dataset = worlds["trained"]
        table = build_candidate_table(
            SimilarityIndex(model), dataset, items=np.empty(0, dtype=np.int64)
        )
        assert len(table) == 0 and table._candidates.shape == (0, 50)

    @pytest.mark.parametrize("world", ["trained", "ties"])
    def test_rows_around_a_block_boundary(self, worlds, world, monkeypatch):
        model, dataset = worlds[world]
        index = SimilarityIndex(model, mode="directional")
        block = 7
        monkeypatch.setattr(candidates_module, "_BLOCK_BYTES", block * 4 * index.n_items)
        config = CandidateTableConfig(k=10, max_per_shop=2, max_per_brand=2)
        for n_rows in (block - 1, block, block + 1, 3 * block + 1):
            items = index.item_ids[:n_rows]
            assert_same_table(
                build_candidate_table(index, dataset, config, items),
                loop_candidate_table(index, dataset, config, items),
            )


class TestBlockCalls:
    def test_one_block_call_per_block_and_no_single_topk(
        self, fitted_sgns, tiny_split, monkeypatch
    ):
        """Counted, not timed: N rows cost ceil(N / rows-per-block)
        ``topk_block`` calls and no per-row ``topk``."""
        train, _ = tiny_split
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
        build_candidate_table(index, train, CandidateTableConfig(k=10))
        assert calls == {"topk": 0, "topk_block": math.ceil(n_rows / rows_per_block)}


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

    def test_brand_diversity_enforced(self, fitted_sgns, tiny_split):
        train, _ = tiny_split
        diverse = build_candidate_table(
            fitted_sgns.index,
            train,
            CandidateTableConfig(k=15, max_per_shop=None, max_per_brand=1),
        )
        brand = {i.item_id: i.si_values["brand"] for i in train.items}
        capped = False
        for item in diverse.item_ids:
            candidates, _ = diverse.lookup(int(item))
            brands = [brand[int(c)] for c in candidates[candidates >= 0]]
            assert len(brands) == len(set(brands))
            raw, _ = fitted_sgns.index.topk(int(item), 15)
            capped |= len({brand[int(c)] for c in raw}) < len(raw)
        assert capped, "expected the brand cap to bind on some row"

    def test_a_skipped_candidate_uses_up_no_slot(self):
        """Caps count *kept* candidates, not occurrences.

        Item 0's neighbours rank 1..7 (item ``i`` sits at ``10 * i``
        degrees), one slot per shop and per brand:

        ====  ====  =====  =====================================
        item  shop  brand  walk
        ====  ====  =====  =====================================
        1     A     X      kept
        2     B     X      skipped: brand X is full
        3     B     Y      kept: item 2 took no slot of shop B
        4     C     Y      skipped: brand Y is full
        5     C     Z      kept: item 4 took no slot of shop C
        6     A     W      skipped: shop A is full
        7     D     W      kept: item 6 took no slot of brand W
        ====  ====  =====  =====================================

        Counting occurrences instead would keep item 1 alone.
        """
        angles = np.radians(10.0 * np.arange(8))
        vectors = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        A, B, C, D, W, X, Y, Z = range(8)
        model, dataset = hand_world(
            vectors, vectors,
            shops=[D, A, B, B, C, C, A, D],
            brands=[Z, X, X, Y, Y, Z, W, W],
        )
        table = build_candidate_table(
            SimilarityIndex(model), dataset,
            CandidateTableConfig(k=10, max_per_shop=1, max_per_brand=1),
        )
        candidates, _ = table.lookup(0)
        np.testing.assert_array_equal(candidates[:5], [1, 3, 5, 7, -1])

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
