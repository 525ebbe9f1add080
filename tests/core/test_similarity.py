"""Unit tests for similarity scoring and top-K retrieval."""

import numpy as np
import pytest

from repro.core.model import EmbeddingModel
from repro.core.similarity import SimilarityIndex, _order_key, _select_topk
from repro.core.vocab import TokenKind, Vocabulary


def make_model():
    """Three items with hand-placed vectors plus one SI token.

    Input vectors: item 0 and item 1 point the same way, item 2 is
    orthogonal.  Output vectors: item 2's output points along item 0's
    input (so the directional index must rank 2 first for query 0).
    """
    vocab = Vocabulary()
    vocab.add("item_0", TokenKind.ITEM, 0, count=5)
    vocab.add("item_1", TokenKind.ITEM, 1, count=5)
    vocab.add("item_2", TokenKind.ITEM, 2, count=5)
    vocab.add("brand_9", TokenKind.SI, ("brand", 9), count=5)
    w_in = np.array(
        [
            [1.0, 0.0],
            [0.9, 0.1],
            [0.0, 1.0],
            [0.5, 0.5],
        ]
    )
    w_out = np.array(
        [
            [0.6, 0.8],
            [0.1, 0.9],
            [1.0, 0.0],
            [0.5, 0.5],
        ]
    )
    return EmbeddingModel(vocab, w_in, w_out)


class TestConstruction:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SimilarityIndex(make_model(), mode="euclidean")

    def test_rejects_model_without_items(self):
        vocab = Vocabulary()
        vocab.add("brand_1", TokenKind.SI, ("brand", 1))
        model = EmbeddingModel(vocab, np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError, match="no item tokens"):
            SimilarityIndex(model)

    def test_index_covers_only_items(self):
        index = SimilarityIndex(make_model())
        assert index.n_items == 3
        np.testing.assert_array_equal(index.item_ids, [0, 1, 2])
        assert 0 in index and 2 in index
        assert 3 not in index


class TestCosineMode:
    def test_most_similar_input_direction_wins(self):
        index = SimilarityIndex(make_model(), mode="cosine")
        items, scores = index.topk(0, k=2)
        assert items[0] == 1
        assert scores[0] > scores[1]

    def test_score_is_cosine(self):
        index = SimilarityIndex(make_model(), mode="cosine")
        expected = (np.array([1, 0]) @ np.array([0.9, 0.1])) / np.linalg.norm(
            [0.9, 0.1]
        )
        assert index.score(0, 1) == pytest.approx(expected)

    def test_symmetric_scores(self):
        index = SimilarityIndex(make_model(), mode="cosine")
        assert index.score(0, 1) == pytest.approx(index.score(1, 0))

    def test_query_excluded_by_default(self):
        index = SimilarityIndex(make_model(), mode="cosine")
        items, _ = index.topk(0, k=3)
        assert 0 not in items

    def test_query_included_when_asked(self):
        index = SimilarityIndex(make_model(), mode="cosine")
        items, scores = index.topk(0, k=3, exclude_query=False)
        assert items[0] == 0
        assert scores[0] == pytest.approx(1.0)


class TestDirectionalMode:
    def test_in_out_direction_wins(self):
        index = SimilarityIndex(make_model(), mode="directional")
        items, _ = index.topk(0, k=2)
        assert items[0] == 2

    def test_asymmetric_scores(self):
        index = SimilarityIndex(make_model(), mode="directional")
        assert index.score(0, 2) != pytest.approx(index.score(2, 0))

    def test_scores_are_normalized(self):
        index = SimilarityIndex(make_model(), mode="directional")
        assert index.score(0, 2) == pytest.approx(1.0)


class TestTopKByVector:
    def test_unnormalized_query_ok(self):
        index = SimilarityIndex(make_model(), mode="cosine")
        items_a, scores_a = index.topk_by_vector(np.array([10.0, 0.0]), k=2)
        items_b, scores_b = index.topk_by_vector(np.array([1.0, 0.0]), k=2)
        np.testing.assert_array_equal(items_a, items_b)
        np.testing.assert_allclose(scores_a, scores_b)

    def test_zero_vector_does_not_crash(self):
        index = SimilarityIndex(make_model(), mode="cosine")
        items, scores = index.topk_by_vector(np.zeros(2), k=2)
        assert len(items) == 2
        np.testing.assert_allclose(scores, 0.0)


class TestBatch:
    def test_matches_single_queries(self):
        index = SimilarityIndex(make_model(), mode="cosine")
        batch = index.topk_batch(np.array([0, 1, 2]), k=2)
        for row, query in enumerate([0, 1, 2]):
            single, _ = index.topk(query, k=2)
            np.testing.assert_array_equal(batch[row], single)

    def test_pads_with_minus_one(self):
        index = SimilarityIndex(make_model(), mode="cosine")
        batch = index.topk_batch(np.array([0]), k=10)
        assert batch.shape == (1, 10)
        assert np.all(batch[0, 2:] == -1)

    def test_k_validation(self):
        index = SimilarityIndex(make_model())
        with pytest.raises(ValueError):
            index.topk(0, k=0)
        with pytest.raises(ValueError):
            index.topk_batch(np.array([0]), k=0)

    def test_unknown_query_raises(self):
        index = SimilarityIndex(make_model())
        with pytest.raises(KeyError):
            index.topk(99, k=1)


class TestTopKBlock:
    def test_rows_are_the_single_queries(self, fitted_sisg):
        for mode in ("cosine", "directional"):
            index = SimilarityIndex(fitted_sisg.model, mode=mode)
            queries = index.item_ids[::3]
            ids, scores = index.topk_block(queries, 25)
            assert ids.shape == scores.shape == (len(queries), 25)
            for row, query in enumerate(queries):
                single_ids, single_scores = index.topk(int(query), 25)
                assert ids[row].tobytes() == single_ids.tobytes()
                assert scores[row].tobytes() == single_scores.tobytes()

    def test_order_key_sorts_like_lexsort(self):
        """Ties, including ``-0.0`` against ``+0.0``, break by id rank."""
        rng = np.random.default_rng(0)
        neg = rng.choice(
            np.array([-0.5, -0.0, 0.0, 0.25, 0.5, -np.inf], dtype=np.float32), 400
        )
        ranks = rng.permutation(400).astype(np.uint64)
        key = _order_key(neg, ranks)
        np.testing.assert_array_equal(np.argsort(key), np.lexsort((ranks, neg)))

    def test_ties_break_by_id_in_a_restricted_index(self):
        """A restricted index keeps its caller's (unsorted) row order."""
        vocab = Vocabulary()
        for item in range(6):
            vocab.add(f"item_{item}", TokenKind.ITEM, item)
        vectors = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3)
        index = SimilarityIndex(EmbeddingModel(vocab, vectors, vectors))
        sub = index.restrict(np.array([5, 1, 4, 0, 2]))
        ids, scores = sub.topk(2, k=4)
        np.testing.assert_array_equal(ids, [0, 1, 4, 5])
        np.testing.assert_array_equal(scores, [1.0, 1.0, 0.0, 0.0])


class TestOnTrainedModel:
    def test_directional_and_cosine_agree_on_items(self, fitted_sisg):
        """Both modes retrieve from the same item universe."""
        cos = SimilarityIndex(fitted_sisg.model, mode="cosine")
        dire = SimilarityIndex(fitted_sisg.model, mode="directional")
        assert cos.n_items == dire.n_items

    def test_batch_consistency_on_trained_model(self, fitted_sgns):
        index = fitted_sgns.index
        queries = index.item_ids[:5]
        batch = index.topk_batch(queries, k=7)
        for row, q in enumerate(queries):
            single, _ = index.topk(int(q), k=7)
            np.testing.assert_array_equal(batch[row, : len(single)], single)


class TestSelectTopkMatchesLexsort:
    """``_select_topk`` picks the unique first ``kk`` under ``(-score, id)``
    on tie-heavy rows, with ties straddling the cut, ``kk = 1`` and
    ``kk = n``."""

    @pytest.mark.parametrize("kk", [1, 2, 9, 39, 40])
    @pytest.mark.parametrize("per_row_ids", [False, True])
    @pytest.mark.parametrize("masked", [0.1, 0.8])
    def test_set_is_the_lexsort_prefix(self, kk, per_row_ids, masked):
        """``masked`` is the share of -inf scores (an IVF batch masks
        most of each row)."""
        rng = np.random.default_rng(kk)
        scores = rng.integers(0, 4, size=(30, 40)).astype(np.float32)
        scores[rng.random(scores.shape) < masked] = -np.inf
        ids = (
            np.stack([rng.permutation(40) for _ in range(30)])
            if per_row_ids else rng.permutation(40)
        )
        top, top_scores = _select_topk(scores, ids, kk)
        np.testing.assert_array_equal(np.take_along_axis(scores, top, axis=1), top_scores)
        for q in range(len(scores)):
            row_ids = ids[q] if per_row_ids else ids
            want = np.lexsort((row_ids, -scores[q]))[:kk]
            assert sorted(top[q].tolist()) == sorted(want.tolist())
