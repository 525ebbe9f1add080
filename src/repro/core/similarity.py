"""Item-to-item similarity and top-K retrieval (the matching stage).

Two scoring modes, matching Section II-C of the paper:

- ``cosine`` — the standard choice for symmetric models: cosine between
  *input* vectors.
- ``directional`` — for the asymmetry-aware model: the similarity of the
  ordered pair ``(v_i, v_j)`` is the cosine of ``v_i`` and ``v'_j`` (input
  vector of the query against the *output* vector of the candidate), which
  preserves the learned transition direction; ``sim(i, j) != sim(j, i)``
  in general.  The paper computes ``v_i^T v'_j`` under its blanket "all
  similarities are standard cosine similarity" convention; normalizing is
  also essential in practice because output-vector norms correlate
  strongly with item popularity, and raw inner products would rank hot
  items above the true forward neighbours.

The mode is the model's (:attr:`EmbeddingModel.similarity`, set by the
trainer), so every index over one model scores alike.

The index pre-extracts the item rows of the embedding matrices so queries
are dense matrix products followed by an ``argpartition`` top-K whose cut
breaks ties by ascending id (:func:`_select_topk`): ``topk(i, k)`` is
always the first ``k`` of ``topk(i, K)`` for ``K > k``.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import SIMILARITIES, EmbeddingModel
from repro.core.vocab import TokenKind
from repro.utils import require, require_positive


def _tiebreak_order(ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Per-row column order sorting each row by ``(-score, id)``.

    ``argpartition`` leaves tied scores in memory-layout order, which
    differs between an unsharded index and the sharded merge's explicit
    id tiebreak; retrieval everywhere orders ties by ascending id so the
    two agree bit for bit.  Expects finite or ``-inf`` scores (no NaN).
    """
    nq, kk = ids.shape
    flat = np.lexsort(
        (ids.ravel(), -scores.ravel(), np.repeat(np.arange(nq), kk))
    )
    return flat.reshape(nq, kk) - np.arange(nq)[:, None] * kk


def _select_topk(
    scores: np.ndarray, ids: np.ndarray, kk: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-``kk`` columns per row, ties at the cut broken by ascending id.

    ``argpartition`` alone cuts a tie group straddling the ``kk``
    boundary arbitrarily, so which tied candidates survive would depend
    on the call: ``topk(i, k)`` would not be a prefix of ``topk(i, K)``,
    and sharded and unsharded retrieval would disagree on tie-heavy
    catalogues even though both sort their *output* by ``(-score, id)``.
    Rows whose boundary score recurs outside the selection are
    re-selected exactly; all other rows keep the cheap partition result.
    ``ids`` aligns with the score columns, either one row (``(n,)``) or
    per query (``(q, n)``).  Returns ``(columns, scores)``, unordered.
    """
    top = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
    top_scores = np.take_along_axis(scores, top, axis=1)
    boundary = top_scores.min(axis=1)
    n_at_least = (scores >= boundary[:, None]).sum(axis=1)
    for q in np.flatnonzero(n_at_least > kk):
        pool = np.flatnonzero(scores[q] >= boundary[q])
        row_ids = ids[q] if ids.ndim == 2 else ids
        order = np.lexsort((row_ids[pool], -scores[q, pool]))
        chosen = pool[order[:kk]]
        top[q] = chosen
        top_scores[q] = scores[q, chosen]
    return top, top_scores


def _id_order(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(by_id, rank)``: the columns in ascending id order, and each
    column's place in that order (the low word of an order key)."""
    by_id = np.argsort(ids, kind="stable")
    rank = np.empty(len(ids), dtype=np.uint64)
    rank[by_id] = np.arange(len(ids), dtype=np.uint64)
    return by_id, rank


_LOW_WORD = np.uint64(0xFFFFFFFF)


def _order_key(neg_scores: np.ndarray, id_rank: np.ndarray) -> np.ndarray:
    """``uint64`` keys that sort like ``(neg_score, id)`` pairs.

    The high word is the float32's bits mapped to an unsigned integer of
    the same order; ``-0.0`` is folded into ``+0.0`` first, because a
    float comparison (and so ``lexsort``) treats the two as a tie.  The
    low word is the id's rank, so ties break by ascending id.
    """
    bits = (neg_scores + np.float32(0.0)).view(np.uint32)
    bits ^= (bits >> 31) * 0x7FFFFFFF | 0x80000000
    return bits.astype(np.uint64) << 32 | id_rank


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize rows; zero rows stay zero."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


class SimilarityIndex:
    """Top-K retrieval over the item tokens of an embedding model.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.model.EmbeddingModel`.
    mode:
        ``"cosine"`` or ``"directional"`` (see module docstring); by
        default the model's own :attr:`~EmbeddingModel.similarity`.
    """

    def __init__(self, model: EmbeddingModel, mode: str | None = None) -> None:
        mode = model.similarity if mode is None else mode
        require(
            mode in SIMILARITIES, f"mode must be one of {SIMILARITIES}, got {mode!r}"
        )
        self.model = model
        self.mode = mode

        item_vids = model.vocab.ids_of_kind(TokenKind.ITEM)
        require(len(item_vids) > 0, "model contains no item tokens")
        self._item_vids = item_vids
        self._item_ids = model.vocab.item_ids()
        self._by_id, self._id_rank = _id_order(self._item_ids)
        self._vid_row = {int(v): row for row, v in enumerate(item_vids)}
        self._item_row = {int(i): row for row, i in enumerate(self._item_ids)}

        # Serving holds these matrices resident per shard; float32 halves
        # the footprint and is the baseline the quantized tier's bytes
        # budget is measured against.
        if mode == "cosine":
            self._queries = _normalize_rows(model.w_in[item_vids]).astype(
                np.float32
            )
            self._candidates = self._queries
        else:
            self._queries = _normalize_rows(model.w_in[item_vids]).astype(
                np.float32
            )
            self._candidates = _normalize_rows(model.w_out[item_vids]).astype(
                np.float32
            )

    @property
    def n_items(self) -> int:
        """Number of items in the index."""
        return len(self._item_ids)

    def restrict(self, item_ids: np.ndarray) -> "SimilarityIndex":
        """A view of this index covering only ``item_ids``.

        Used to shard retrieval by HBGP partition: each shard serves the
        rows it owns, and a scatter-gather over all shards reproduces the
        full index (scores are computed from the same normalized vectors,
        so per-shard results merge by score).  Rows are sliced, not
        recomputed; the underlying model is shared.
        """
        item_ids = np.asarray(item_ids, dtype=np.int64)
        require(len(item_ids) > 0, "cannot restrict an index to zero items")
        missing = [int(i) for i in item_ids if int(i) not in self._item_row]
        require(not missing, f"items not in the index: {missing[:5]}")
        rows = np.asarray(
            [self._item_row[int(i)] for i in item_ids], dtype=np.int64
        )
        sub = object.__new__(SimilarityIndex)
        sub.model = self.model
        sub.mode = self.mode
        sub._item_vids = self._item_vids[rows]
        sub._item_ids = self._item_ids[rows]
        sub._by_id, sub._id_rank = _id_order(sub._item_ids)
        sub._vid_row = {int(v): row for row, v in enumerate(sub._item_vids)}
        sub._item_row = {int(i): row for row, i in enumerate(sub._item_ids)}
        sub._queries = self._queries[rows]
        sub._candidates = (
            sub._queries if self._candidates is self._queries
            else self._candidates[rows]
        )
        return sub

    @property
    def item_ids(self) -> np.ndarray:
        """Item ids covered by the index, in row order."""
        return self._item_ids

    def __contains__(self, item_id: int) -> bool:
        return int(item_id) in self._item_row

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def score(self, query_item: int, candidate_item: int) -> float:
        """Similarity of the *ordered* pair ``(query, candidate)``."""
        q = self._queries[self._item_row[int(query_item)]]
        c = self._candidates[self._item_row[int(candidate_item)]]
        return float(q @ c)

    def query_vector(self, item_id: int) -> np.ndarray:
        """The query-side vector of ``item_id`` as used by this index."""
        return self._queries[self._item_row[int(item_id)]]

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------

    def topk(
        self, item_id: int, k: int, exclude_query: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` most similar items to ``item_id``.

        Returns ``(item_ids, scores)`` sorted by descending score; the
        one-row case of :meth:`topk_block`.
        """
        ids, scores = self.topk_block([item_id], k, exclude_query)
        return ids[0], scores[0]

    def topk_block(
        self, item_ids, k: int, exclude_query: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-``k`` of every item in ``item_ids``, one row each.

        Returns ``(ids, scores)``, both ``(len(item_ids), kk)`` with ``kk``
        the ``k`` the catalogue can supply, each row ordered by
        ``(-score, ascending id)``.  The caller bounds the block: it
        allocates one ``(len(item_ids), n_items)`` score matrix.

        Each row is scored by its own GEMV, never one GEMM over the
        block: a GEMM accumulates in a different order, and its scores
        differ from the GEMV's in the last ulp.  Selection is
        :func:`_select_topk` and ordering one sort of packed
        ``(-score, id rank)`` keys.
        """
        require_positive(k, "k")
        rows = []
        for item_id in item_ids:
            row = self._item_row.get(int(item_id))
            if row is None:
                raise KeyError(f"item {item_id} is not in the index")
            rows.append(row)
        kk = min(k, self.n_items - (1 if exclude_query else 0))
        if kk <= 0:
            return np.empty((len(rows), 0), np.int64), np.empty((len(rows), 0), np.float32)
        scores = np.empty((len(rows), self.n_items), dtype=np.float32)
        for out, row in zip(scores, rows):
            np.matmul(self._candidates, self._queries[row], out=out)
        if exclude_query:
            scores[np.arange(len(rows)), rows] = -np.inf
        top, top_scores = _select_topk(scores, self._item_ids, kk)
        key = _order_key(-top_scores, self._id_rank[top])
        key.sort(axis=1)
        cols = self._by_id[key & _LOW_WORD]
        return self._item_ids[cols], np.take_along_axis(scores, cols, axis=1)

    def topk_by_vector(self, vector: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` items for an arbitrary query vector (e.g. cold start).

        In cosine mode the vector is normalized before scoring.
        """
        require_positive(k, "k")
        vector = np.asarray(vector, dtype=np.float64)
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector = vector / norm
        scores = self._candidates @ vector
        top, top_scores = _select_topk(
            scores[None, :], self._item_ids, min(k, len(scores))
        )
        order = np.lexsort((self._item_ids[top[0]], -top_scores[0]))
        return self._item_ids[top[0, order]], top_scores[0, order]

    def topk_batch(
        self, item_ids: np.ndarray, k: int, exclude_query: bool = True
    ) -> np.ndarray:
        """Top-``k`` retrieval for many queries at once.

        Returns an ``(len(item_ids), k)`` array of recommended item ids
        (padded with ``-1`` when fewer than ``k`` candidates exist).  Used
        by the HitRate evaluator, where per-query calls would dominate
        runtime.
        """
        require_positive(k, "k")
        item_ids = np.asarray(item_ids, dtype=np.int64)
        rows = np.asarray([self._item_row[int(i)] for i in item_ids], dtype=np.int64)
        scores = self._queries[rows] @ self._candidates.T
        if exclude_query:
            scores[np.arange(len(rows)), rows] = -np.inf
        avail = scores.shape[1] - (1 if exclude_query else 0)
        kk = min(k, avail)
        top, row_scores = _select_topk(scores, self._item_ids, kk)
        order = _tiebreak_order(self._item_ids[top], row_scores)
        top = np.take_along_axis(top, order, axis=1)
        result = np.full((len(item_ids), k), -1, dtype=np.int64)
        result[:, :kk] = self._item_ids[top]
        return result
