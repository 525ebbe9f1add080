"""Unit tests for k-means and the IVF approximate index."""

import numpy as np
import pytest

from repro.core.ann import IVFIndex, _blocked_matmul, kmeans


class _ScriptedGenerator(np.random.Generator):
    """A Generator whose index draws follow a script.

    ``ensure_rng`` passes Generator instances through unchanged, so this
    lets a test force the k-means++ seeding onto specific points —
    including duplicate seeds, which otherwise require degenerate data.
    """

    def __init__(self, picks):
        super().__init__(np.random.PCG64(0))
        self._picks = list(picks)

    def integers(self, *args, **kwargs):
        return self._picks.pop(0)

    def choice(self, *args, **kwargs):
        return self._picks.pop(0)


class TestBlockedMatmul:
    def test_padding_preserves_dtype(self):
        """Regression: the zero pad must not upcast float32 queries.

        A float64 pad block would silently promote the GEMM to float64
        exactly when padding fires, so the same query would see
        different-precision kernels at different batch sizes.
        """
        rng = np.random.default_rng(0)
        queries = rng.normal(size=(5, 8)).astype(np.float32)  # 5 -> pad to 32
        base_t = rng.normal(size=(8, 20)).astype(np.float32)
        out = _blocked_matmul(queries, base_t)
        assert out.dtype == np.float32
        assert out.shape == (5, 20)
        np.testing.assert_allclose(out, queries @ base_t, rtol=1e-6)

    def test_rows_batch_invariant(self):
        rng = np.random.default_rng(1)
        queries = rng.normal(size=(40, 8)).astype(np.float32)
        base_t = rng.normal(size=(8, 30)).astype(np.float32)
        batch = _blocked_matmul(queries, base_t)
        for row in (0, 7, 39):
            single = _blocked_matmul(queries[row : row + 1], base_t)
            np.testing.assert_array_equal(batch[row], single[0])


class TestKMeans:
    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(40, 3)) + 12.0
        x = np.vstack([a, b])
        _centroids, assignments = kmeans(x, 2, seed=1)
        first, second = assignments[:40], assignments[40:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_assignment_shape_and_range(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 4))
        centroids, assignments = kmeans(x, 5, seed=0)
        assert centroids.shape == (5, 4)
        assert assignments.shape == (30,)
        assert set(np.unique(assignments)) <= set(range(5))

    def test_k_equals_n(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 2))
        _c, assignments = kmeans(x, 6, seed=0)
        assert len(set(assignments.tolist())) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 5)
        with pytest.raises(ValueError):
            kmeans(np.zeros(3), 1)
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 3))
        a = kmeans(x, 4, seed=9)[1]
        b = kmeans(x, 4, seed=9)[1]
        np.testing.assert_array_equal(a, b)

    def test_empty_clusters_reseed_to_distinct_points(self):
        """Regression: multiple empty clusters must get *distinct* seeds.

        The scripted rng seeds three centroids on the same duplicated
        point, so two clusters come up empty on the first assignment.
        The old re-seed placed every empty at the argmax of the *stale*
        distance map, i.e. the same point for both — duplicate centroids
        that never separated.  Re-seeding against the freshly updated
        centroids (and shrinking the gap after each pick) recovers one
        centroid per distinct location.
        """
        points = np.array(
            [[0.0, 0.0]] * 3  # duplicated blob: indices 0-2
            + [[10.0, 0.0], [0.0, 10.0], [20.0, 20.0], [-20.0, 20.0]]
        )
        # Seeding picks indices 0,1,2 (the duplicate point, thrice), 3, 4.
        rigged = _ScriptedGenerator([0, 1, 2, 3, 4])
        centroids, assignments = kmeans(points, 5, seed=rigged)
        distinct = np.unique(np.round(centroids, 9), axis=0)
        assert len(distinct) == 5
        assert set(np.unique(assignments)) == set(range(5))

    @pytest.mark.parametrize("k", [5, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_duplicate_heavy_data_fills_every_location(self, k, seed):
        """With 6 distinct locations, k <= 6 clusters must all separate."""
        rng = np.random.default_rng(41)
        locations = np.array(
            [[0, 0], [8, 0], [0, 8], [8, 8], [4, 16], [16, 4]], dtype=float
        )
        repeats = rng.integers(3, 12, size=6)
        x = np.repeat(locations, repeats, axis=0)
        centroids, _ = kmeans(x, k, seed=seed)
        distinct = np.unique(np.round(centroids, 9), axis=0)
        assert len(distinct) == k


@pytest.fixture(scope="module")
def exact_index(fitted_sgns):
    return fitted_sgns.index


class TestIVFIndex:
    def test_exhaustive_probe_matches_exact(self, exact_index):
        ivf = IVFIndex(exact_index, n_cells=8, n_probe=8, seed=0)
        for query in exact_index.item_ids[:5]:
            exact_items, _ = exact_index.topk(int(query), 10)
            approx_items, _ = ivf.topk(int(query), 10)
            np.testing.assert_array_equal(exact_items, approx_items)

    def test_recall_increases_with_probes(self, exact_index):
        ivf = IVFIndex(exact_index, n_cells=16, seed=0)
        queries = exact_index.item_ids[:30]
        low = ivf.recall_at_k(queries, k=10, n_probe=1)
        high = ivf.recall_at_k(queries, k=10, n_probe=16)
        assert high >= low
        assert high == pytest.approx(1.0)

    def test_partial_probe_recall_reasonable(self, exact_index):
        ivf = IVFIndex(exact_index, n_cells=12, n_probe=4, seed=0)
        recall = ivf.recall_at_k(exact_index.item_ids[:40], k=10)
        assert recall > 0.5

    def test_query_excluded(self, exact_index):
        ivf = IVFIndex(exact_index, n_cells=4, n_probe=4, seed=0)
        items, _ = ivf.topk(0, 10)
        assert 0 not in items

    def test_topk_by_vector(self, exact_index):
        ivf = IVFIndex(exact_index, n_cells=4, n_probe=4, seed=0)
        query = exact_index.query_vector(int(exact_index.item_ids[0]))
        items, scores = ivf.topk_by_vector(query, 5)
        assert len(items) == 5
        assert np.all(np.diff(scores) <= 1e-12)

    def test_contains(self, exact_index):
        ivf = IVFIndex(exact_index, n_cells=4, seed=0)
        assert int(exact_index.item_ids[0]) in ivf

    def test_default_cell_count(self, exact_index):
        ivf = IVFIndex(exact_index, seed=0)
        assert ivf.n_cells == max(1, int(np.sqrt(exact_index.n_items)))

    def test_validation(self, exact_index):
        with pytest.raises(ValueError):
            IVFIndex(exact_index, n_probe=0)
        with pytest.raises(ValueError):
            IVFIndex(exact_index, n_cells=10**6)


class TestTopkBatch:
    def test_matches_single_query(self, exact_index):
        ivf = IVFIndex(exact_index, n_cells=12, n_probe=4, seed=0)
        queries = exact_index.item_ids[:25]
        batch_ids, batch_scores = ivf.topk_batch(queries, 10)
        assert batch_ids.shape == (25, 10)
        for row, item in enumerate(queries):
            single_ids, single_scores = ivf.topk(int(item), 10)
            valid = batch_ids[row] >= 0
            np.testing.assert_array_equal(batch_ids[row][valid], single_ids)
            np.testing.assert_allclose(batch_scores[row][valid], single_scores)

    def test_exhaustive_probes_match_exact(self, exact_index):
        ivf = IVFIndex(exact_index, n_cells=8, n_probe=8, seed=0)
        queries = exact_index.item_ids[:10]
        batch_ids, _ = ivf.topk_batch(queries, 10)
        for row, item in enumerate(queries):
            exact_items, _ = exact_index.topk(int(item), 10)
            np.testing.assert_array_equal(batch_ids[row], exact_items)

    def test_query_items_excluded(self, exact_index):
        ivf = IVFIndex(exact_index, n_cells=6, n_probe=6, seed=0)
        queries = exact_index.item_ids[:12]
        batch_ids, _ = ivf.topk_batch(queries, 10)
        for row, item in enumerate(queries):
            assert int(item) not in batch_ids[row]

    def test_pads_marked_invalid(self, exact_index):
        # k far above the catalogue size forces pads on every row.
        ivf = IVFIndex(exact_index, n_cells=4, n_probe=4, seed=0)
        n = exact_index.n_items
        batch_ids, batch_scores = ivf.topk_batch(exact_index.item_ids[:3], n + 5)
        pads = batch_ids < 0
        assert pads.any()
        assert np.all(np.isnan(batch_scores[pads]))
        assert not np.isnan(batch_scores[~pads]).any()

    def test_empty_batch(self, exact_index):
        ivf = IVFIndex(exact_index, n_cells=4, seed=0)
        ids, scores = ivf.topk_batch(np.empty(0, dtype=np.int64), 5)
        assert ids.shape == (0, 5)
        assert scores.shape == (0, 5)

    def test_invalid_k(self, exact_index):
        ivf = IVFIndex(exact_index, n_cells=4, seed=0)
        with pytest.raises(ValueError):
            ivf.topk_batch(exact_index.item_ids[:2], 0)


@pytest.mark.parametrize("precision", ["int8", "pq"])
class TestQuantizedIVF:
    @pytest.fixture
    def quantized(self, exact_index, precision):
        return IVFIndex(
            exact_index, n_cells=8, n_probe=8, seed=0, precision=precision
        )

    def test_recall_close_to_exact(self, quantized, exact_index, precision):
        queries = exact_index.item_ids[:40]
        recall = quantized.recall_at_k(queries, k=10)
        assert recall >= 0.95

    def test_query_excluded(self, quantized, exact_index, precision):
        queries = exact_index.item_ids[:15]
        batch_ids, _ = quantized.topk_batch(queries, 10)
        for row, item in enumerate(queries):
            assert int(item) not in batch_ids[row]

    def test_batch_matches_single(self, quantized, exact_index, precision):
        queries = exact_index.item_ids[:20]
        batch_ids, batch_scores = quantized.topk_batch(queries, 10)
        for row, item in enumerate(queries):
            single_ids, single_scores = quantized.topk(int(item), 10)
            valid = batch_ids[row] >= 0
            np.testing.assert_array_equal(batch_ids[row][valid], single_ids)
            np.testing.assert_array_equal(
                batch_scores[row][valid], single_scores
            )

    def test_padding_matches_float32(self, quantized, exact_index, precision):
        """Overlong k pads with -1/NaN exactly where float32 does."""
        exact_ivf = IVFIndex(exact_index, n_cells=8, n_probe=8, seed=0)
        n = exact_index.n_items
        queries = exact_index.item_ids[:4]
        q_ids, q_scores = quantized.topk_batch(queries, n + 5)
        f_ids, f_scores = exact_ivf.topk_batch(queries, n + 5)
        np.testing.assert_array_equal(q_ids < 0, f_ids < 0)
        pads = q_ids < 0
        assert pads.any()
        assert np.all(np.isnan(q_scores[pads]))
        assert not np.isnan(q_scores[~pads]).any()

    def test_scores_are_exact_reranks(self, quantized, exact_index, precision):
        """Returned scores come from the float re-rank, not the codes."""
        item = int(exact_index.item_ids[0])
        ids, scores = quantized.topk(item, 5)
        query = exact_index.query_vector(item)
        for got_id, got_score in zip(ids, scores):
            row = int(np.flatnonzero(exact_index.item_ids == got_id)[0])
            want = float(query @ exact_index._candidates[row])
            assert got_score == pytest.approx(want, rel=1e-5)

    def test_resident_bytes_below_float32(self, exact_index, precision):
        exact_ivf = IVFIndex(exact_index, n_cells=8, n_probe=8, seed=0)
        full = exact_ivf.index_bytes()
        # A toy catalogue needs a toy codebook, or the PQ centroids
        # outweigh the 200-item float matrix they replace.
        tier = IVFIndex(
            exact_index,
            n_cells=8,
            n_probe=8,
            seed=0,
            precision=precision,
            pq_centroids=32,
        ).index_bytes()
        assert full["vectors"] > 0 and full["codes"] == 0
        assert tier["vectors"] == 0 and tier["codes"] > 0
        assert tier["rerank_vectors"] == full["vectors"]
        assert tier["resident"] < full["resident"]


def kmeans_loop_reference(vectors, n_clusters, n_iter=25, seed=0):
    """The per-cluster k-means ``kmeans`` replaced: one boolean scan per
    cluster for emptiness and one ``members.mean(axis=0)`` per centroid."""
    from repro.utils import ensure_rng

    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    rng = ensure_rng(seed)
    centroids = np.empty((n_clusters, vectors.shape[1]))
    centroids[0] = vectors[int(rng.integers(n))]
    closest = np.sum((vectors - centroids[0]) ** 2, axis=1)
    for c in range(1, n_clusters):
        total = closest.sum()
        if total <= 0:
            centroids[c] = vectors[int(rng.integers(n))]
            continue
        centroids[c] = vectors[int(rng.choice(n, p=closest / total))]
        closest = np.minimum(closest, np.sum((vectors - centroids[c]) ** 2, axis=1))
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        d2 = (
            np.sum(vectors**2, axis=1)[:, None]
            - 2.0 * vectors @ centroids.T
            + np.sum(centroids**2, axis=1)[None, :]
        )
        new_assignments = np.argmin(d2, axis=1)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments
        empty = [c for c in range(n_clusters) if not np.any(assignments == c)]
        for c in range(n_clusters):
            members = vectors[assignments == c]
            if len(members) > 0:
                centroids[c] = members.mean(axis=0)
        if empty:
            keep = np.ones(n_clusters, dtype=bool)
            keep[empty] = False
            kept = centroids[keep]
            gap = (
                np.sum(vectors**2, axis=1)[:, None]
                - 2.0 * vectors @ kept.T
                + np.sum(kept**2, axis=1)[None, :]
            ).min(axis=1)
            for c in empty:
                worst = int(np.argmax(gap))
                centroids[c] = vectors[worst]
                gap = np.minimum(gap, np.sum((vectors - vectors[worst]) ** 2, axis=1))
    return centroids, assignments


class TestKMeansMatchesLoop:
    """The CSR segment-sum update gives the per-cluster loop's bytes."""

    @staticmethod
    def assert_same(points, k, seed, reference_seed=None):
        got = kmeans(points, k, seed=seed)
        want = kmeans_loop_reference(
            points, k, seed=seed if reference_seed is None else reference_seed
        )
        assert got[0].tobytes() == want[0].tobytes()
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("dim", [2, 8, 32])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_points(self, dim, seed):
        rng = np.random.default_rng([dim, seed])
        n = int(rng.integers(20, 300))
        points = rng.normal(size=(n, dim))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        self.assert_same(points, int(rng.integers(1, 30)), seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_points_force_reseeds(self, seed):
        rng = np.random.default_rng(seed)
        locations = rng.normal(size=(6, 4))
        points = locations[rng.integers(6, size=90)]
        self.assert_same(points, 9, seed)

    def test_rigged_empty_clusters(self):
        points = np.array(
            [[0.0, 0.0]] * 3 + [[10.0, 0.0], [0.0, 10.0], [20.0, 20.0], [-20.0, 20.0]]
        )
        self.assert_same(
            points, 5, _ScriptedGenerator([0, 1, 2, 3, 4]),
            reference_seed=_ScriptedGenerator([0, 1, 2, 3, 4]),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_k_equals_n(self, seed):
        points = np.random.default_rng(seed).normal(size=(12, 3))
        self.assert_same(points, 12, seed)
