"""Approximate nearest-neighbour retrieval (IVF) for the matching stage.

At Taobao's scale the matching stage cannot brute-force a billion-item
similarity scan per request; production systems serve embeddings from an
approximate index.  This module provides a self-contained IVF (inverted
file) index in NumPy:

1. **k-means** clusters the candidate vectors into ``n_cells`` coarse
   cells (Lloyd's algorithm with k-means++ seeding);
2. a query scans only the ``n_probe`` nearest cells and ranks their
   members exactly.

Recall/latency trade off through ``n_cells``/``n_probe``; with
``n_probe == n_cells`` the index is exhaustive and exactly matches
brute force.  The index consumes a :class:`SimilarityIndex`'s candidate
matrix, so it serves cosine and directional models alike.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.quantize import (
    PRECISIONS,
    ProductQuantizer,
    ScalarQuantizer,
)
from repro.core.similarity import (
    SimilarityIndex,
    _normalize_rows,
    _select_topk,
    _tiebreak_order,
)
from repro.utils import (
    ensure_rng,
    get_logger,
    require,
    require_positive,
)

logger = get_logger("core.ann")

#: Query blocks are zero-padded to a multiple of this many rows before
#: the score GEMM.  BLAS picks different kernels (different accumulation
#: orders) for different row counts, so ``(Q @ B)[i]`` and
#: ``(Q[i:i+1] @ B)[0]`` can disagree by an ulp; a fixed block multiple
#: pins the kernel, making every row's scores independent of how many
#: queries share the call.  The serving layer's request coalescer relies
#: on this: micro-batched answers are byte-identical to singles.
_GEMM_BLOCK = 32


def _blocked_matmul(queries: np.ndarray, base_t: np.ndarray) -> np.ndarray:
    """``queries @ base_t`` with the row count padded to ``_GEMM_BLOCK``."""
    m = len(queries)
    padded = -(-m // _GEMM_BLOCK) * _GEMM_BLOCK
    if padded == m:
        return queries @ base_t
    # The pad must keep the queries' own dtype: a float64 block would
    # upcast float32 inputs only when padding fires, so the same query
    # would hit different-precision kernels at different batch sizes.
    block = np.zeros((padded, queries.shape[1]), dtype=queries.dtype)
    block[:m] = queries
    return (block @ base_t)[:m]


def kmeans(
    vectors: np.ndarray,
    n_clusters: int,
    n_iter: int = 25,
    seed: "int | np.random.Generator | None" = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means with k-means++ seeding.

    Returns ``(centroids, assignments)``.  Empty clusters are re-seeded
    from the points farthest from their current centroid.  A centroid is
    its members' sum, added in ascending index order, over their count:
    the bytes of ``members.mean(axis=0)`` for points of two or more
    dimensions (``tests/core/test_ann.py`` keeps that per-cluster loop as
    the reference; numpy sums one-dimensional points pairwise).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    require(vectors.ndim == 2, "vectors must be 2-dimensional")
    n = len(vectors)
    require_positive(n_clusters, "n_clusters")
    require(n_clusters <= n, f"n_clusters ({n_clusters}) must be <= points ({n})")
    require_positive(n_iter, "n_iter")
    rng = ensure_rng(seed)

    # k-means++ seeding.
    centroids = np.empty((n_clusters, vectors.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = vectors[first]
    closest = np.sum((vectors - centroids[0]) ** 2, axis=1)
    for c in range(1, n_clusters):
        total = closest.sum()
        if total <= 0:
            centroids[c] = vectors[int(rng.integers(n))]
            continue
        probs = closest / total
        choice = int(rng.choice(n, p=probs))
        centroids[c] = vectors[choice]
        closest = np.minimum(
            closest, np.sum((vectors - centroids[c]) ** 2, axis=1)
        )

    sq_norms = np.sum(vectors**2, axis=1)
    ones = np.ones(n)
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        # Assignment step (squared Euclidean via the expansion trick).
        d2 = (
            sq_norms[:, None]
            - 2.0 * vectors @ centroids.T
            + np.sum(centroids**2, axis=1)[None, :]
        )
        new_assignments = np.argmin(d2, axis=1)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments
        # Update step: each cluster's member sum is one CSR row.
        sizes = np.bincount(assignments, minlength=n_clusters)
        indicator = sparse.csr_matrix(
            (ones, np.argsort(assignments, kind="stable"), np.append(0, np.cumsum(sizes))),
            shape=(n_clusters, n),
        )
        filled = sizes > 0
        centroids[filled] = (indicator @ vectors)[filled] / sizes[filled, None]
        empty = np.flatnonzero(~filled)
        if len(empty):
            # Re-seed each empty cluster at a *distinct* badly-served
            # point.  The gap must be measured against the centroids
            # just updated above (``d2`` predates them) and shrunk after
            # every re-seed, or all empties would land on the same point
            # and stay duplicate centroids forever.
            kept = centroids[filled]
            gap = (
                sq_norms[:, None]
                - 2.0 * vectors @ kept.T
                + np.sum(kept**2, axis=1)[None, :]
            ).min(axis=1)
            for c in empty:
                worst = int(np.argmax(gap))
                centroids[c] = vectors[worst]
                gap = np.minimum(
                    gap, np.sum((vectors - vectors[worst]) ** 2, axis=1)
                )
    return centroids, assignments


class IVFIndex:
    """Inverted-file ANN index over an existing similarity index.

    Parameters
    ----------
    index:
        The exact :class:`SimilarityIndex` whose candidates to serve.
    n_cells:
        Number of coarse k-means cells (default ``~sqrt(n_items)``).
    n_probe:
        Cells scanned per query (recall/latency knob).
    seed:
        k-means seeding.
    precision:
        ``"float32"`` scans probed cells against the full-precision
        matrix.  ``"int8"`` / ``"pq"`` rank them by asymmetric quantized
        distance instead (codes trained here, at build time) and re-rank
        only the top ``rerank * k`` survivors exactly — the memory-bound
        tier: the big resident artifact shrinks to the code matrix.
    rerank:
        Exact re-rank depth multiplier for the quantized precisions.
    pq_subspaces, pq_centroids:
        Product-quantizer shape (``precision="pq"`` only).
    """

    def __init__(
        self,
        index: SimilarityIndex,
        n_cells: int | None = None,
        n_probe: int = 4,
        seed: "int | np.random.Generator | None" = 0,
        precision: str = "float32",
        rerank: int = 4,
        pq_subspaces: int = 8,
        pq_centroids: int = 256,
    ) -> None:
        require_positive(n_probe, "n_probe")
        require(
            precision in PRECISIONS,
            f"precision must be one of {PRECISIONS}, got {precision!r}",
        )
        require_positive(rerank, "rerank")
        self._exact = index
        candidates = index._candidates
        n = len(candidates)
        if n_cells is None:
            n_cells = max(1, int(np.sqrt(n)))
        require_positive(n_cells, "n_cells")
        require(n_cells <= n, "n_cells must be <= number of items")
        self.n_cells = n_cells
        self.n_probe = min(n_probe, n_cells)
        self.precision = precision
        self.rerank = int(rerank)

        self._centroids, assignments = kmeans(
            _normalize_rows(candidates), n_cells, seed=seed
        )
        self._cells = [
            np.flatnonzero(assignments == c).astype(np.int64)
            for c in range(n_cells)
        ]
        self._candidates = candidates
        self._item_ids = index.item_ids
        if precision == "int8":
            self._quantizer = ScalarQuantizer().train(candidates)
            self._codes = self._quantizer.encode(candidates)
        elif precision == "pq":
            self._quantizer = ProductQuantizer(
                n_subspaces=pq_subspaces, n_centroids=pq_centroids, seed=seed
            ).train(candidates)
            self._codes = self._quantizer.encode(candidates)
        else:
            self._quantizer = None
            self._codes = None
        occupied = sum(1 for cell in self._cells if len(cell))
        logger.info(
            "IVF index: %d items in %d cells (%d occupied), n_probe=%d,"
            " precision=%s",
            n,
            n_cells,
            occupied,
            self.n_probe,
            precision,
        )

    def index_bytes(self) -> dict:
        """Retrieval-tier footprint by component, in bytes.

        ``resident`` is what must stay hot for ranking; for quantized
        precisions the full-precision matrix is only touched for the
        exact re-rank rows and is reported as ``rerank_vectors``.
        """
        out = {
            "precision": self.precision,
            "centroids": int(self._centroids.nbytes),
            "cells": int(sum(cell.nbytes for cell in self._cells)),
        }
        if self._quantizer is None:
            out["vectors"] = int(self._candidates.nbytes)
            out["codes"] = 0
            out["codebook"] = 0
            out["rerank_vectors"] = 0
        else:
            out["vectors"] = 0
            out["codes"] = int(self._codes.nbytes)
            out["codebook"] = int(self._quantizer.nbytes)
            out["rerank_vectors"] = int(self._candidates.nbytes)
        out["resident"] = (
            out["vectors"]
            + out["codes"]
            + out["codebook"]
            + out["centroids"]
            + out["cells"]
        )
        out["total"] = out["resident"] + out["rerank_vectors"]
        return out

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._exact

    def topk(
        self, item_id: int, k: int, n_probe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k`` for ``item_id`` scanning ``n_probe`` cells.

        Delegates to :meth:`topk_batch` with a one-item batch: singles
        and micro-batches share one code path (and one GEMM kernel), so
        the serving layer's coalescer cannot change an answer.
        """
        ids, scores = self.topk_batch(
            np.asarray([int(item_id)], dtype=np.int64), k, n_probe=n_probe
        )
        valid = ids[0] >= 0
        return ids[0][valid], scores[0][valid]

    def topk_by_vector(
        self, vector: np.ndarray, k: int, n_probe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k`` for an arbitrary query vector."""
        ids, scores = self.topk_by_vector_batch(
            np.asarray(vector, dtype=np.float64)[None, :], k, n_probe=n_probe
        )
        valid = ids[0] >= 0
        return ids[0][valid], scores[0][valid]

    def topk_by_vector_batch(
        self,
        vectors: np.ndarray,
        k: int,
        n_probe: int | None = None,
        exclude_items: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k`` for many arbitrary query vectors at once.

        The scatter-gather entry point of the sharded serving layer: a
        dispatcher normalizes once and fans the same query block out to
        every shard's index.  ``exclude_items`` (optional, one id per
        row, ``-1`` for none) removes each query's own item from its row.
        Returns ``(ids, scores)`` of shape ``(len(vectors), k)`` padded
        with ``-1`` / ``NaN``.
        """
        require_positive(k, "k")
        vectors = np.asarray(vectors, dtype=np.float64)
        require(vectors.ndim == 2, "vectors must be 2-dimensional")
        if len(vectors) == 0:
            return np.empty((0, k), dtype=np.int64), np.empty((0, k))
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        # Score in the candidates' precision: an already-normalized row
        # from the index round-trips bit-identically, so the vector path
        # (sharded scatter) and the item path (unsharded micro-batcher)
        # run the same-precision kernel and agree on every tie.
        queries = (vectors / norms).astype(self._candidates.dtype, copy=False)
        return self._search_batch(
            queries, k, n_probe, exclude_items=exclude_items
        )

    def topk_batch(
        self, item_ids: np.ndarray, k: int, n_probe: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k`` for many query items in one pass.

        The batched entry point the serving layer's micro-batcher uses:
        probe cells are unioned across the batch, their member vectors
        gathered once, and all query scores computed in a single matrix
        product instead of one gather+GEMV per query.

        Returns ``(ids, scores)`` of shape ``(len(item_ids), k)``; rows
        with fewer than ``k`` reachable candidates are padded with
        ``-1`` / ``NaN``.  Each query item is excluded from its own
        results, matching :meth:`topk`.
        """
        require_positive(k, "k")
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if len(item_ids) == 0:
            return (
                np.empty((0, k), dtype=np.int64),
                np.empty((0, k)),
            )
        queries = np.stack(
            [self._exact.query_vector(int(i)) for i in item_ids]
        )
        return self._search_batch(queries, k, n_probe, exclude_items=item_ids)

    def _search_batch(
        self,
        queries: np.ndarray,
        k: int,
        n_probe: int | None,
        exclude_items: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        probes = self.n_probe if n_probe is None else min(n_probe, self.n_cells)
        n_queries = len(queries)
        cell_scores = _blocked_matmul(queries, self._centroids.T)
        if probes < self.n_cells:
            probe_cells = np.argpartition(-cell_scores, probes - 1, axis=1)[
                :, :probes
            ]
        else:
            probe_cells = np.tile(np.arange(self.n_cells), (n_queries, 1))
        probed = np.zeros((n_queries, self.n_cells), dtype=bool)
        probed[np.arange(n_queries)[:, None], probe_cells] = True

        union = np.flatnonzero(probed.any(axis=0))
        cells = [self._cells[int(c)] for c in union]
        ids_out = np.full((n_queries, k), -1, dtype=np.int64)
        scores_out = np.full((n_queries, k), np.nan)
        if not any(len(cell) for cell in cells):
            return ids_out, scores_out
        rows = np.concatenate(cells)
        cell_of_row = np.concatenate(
            [np.full(len(cell), c, dtype=np.int64) for c, cell in zip(union, cells)]
        )

        if self._quantizer is None:
            scores = _blocked_matmul(queries, self._candidates[rows].T)
        else:
            scores = self._quantizer.scores(
                queries, self._codes[rows], matmul=_blocked_matmul
            )
        scores[~probed[:, cell_of_row]] = -np.inf
        if exclude_items is not None:
            scores[self._item_ids[rows][None, :] == exclude_items[:, None]] = -np.inf

        kk = min(k, len(rows))
        row_ids = self._item_ids[rows]
        if self._quantizer is None:
            top, top_scores = _select_topk(scores, row_ids, kk)
        else:
            # Quantized scores only shortlist; the top rerank*k survivors
            # are re-scored against the exact float vectors.  einsum with
            # default (unoptimized) contraction accumulates over the
            # embedding dim per (query, candidate) pair in a fixed order,
            # so re-ranked scores are batch-size invariant like the GEMM.
            rr = min(max(self.rerank * k, kk), len(rows))
            sel, shortlist = _select_topk(scores, row_ids, rr)
            exact = np.einsum(
                "qd,qrd->qr", queries, self._candidates[rows[sel]]
            )
            exact = np.where(np.isfinite(shortlist), exact, -np.inf)
            local, top_scores = _select_topk(exact, row_ids[sel], kk)
            top = np.take_along_axis(sel, local, axis=1)
        cand_ids = self._item_ids[rows[top]]
        order = _tiebreak_order(cand_ids, top_scores)
        top_scores = np.take_along_axis(top_scores, order, axis=1)

        ids_out[:, :kk] = np.take_along_axis(cand_ids, order, axis=1)
        scores_out[:, :kk] = top_scores
        invalid = ~np.isfinite(scores_out)
        ids_out[invalid] = -1
        scores_out[invalid] = np.nan
        return ids_out, scores_out

    def recall_at_k(
        self, queries: np.ndarray, k: int, n_probe: int | None = None
    ) -> float:
        """Fraction of exact top-``k`` results the ANN search recovers."""
        require_positive(k, "k")
        hits = 0
        total = 0
        for item_id in np.asarray(queries, dtype=np.int64):
            exact_items, _ = self._exact.topk(int(item_id), k)
            approx_items, _ = self.topk(int(item_id), k, n_probe=n_probe)
            hits += len(set(exact_items.tolist()) & set(approx_items.tolist()))
            total += len(exact_items)
        if total == 0:
            return 0.0
        return hits / total
