"""The nightly item-to-item candidate table.

Builds, for every item the matcher can answer, its ranked top-``k``
candidate list with the production hygiene filters a homepage feed
needs:

- **self exclusion** (never recommend the clicked item back);
- **shop diversity** — at most ``max_per_shop`` candidates from one shop
  (a feed full of one seller's listings looks broken);
- **brand diversity** — likewise per brand;
- **score floor** — drop candidates below ``min_score`` (a near-zero
  similarity is noise, not a recommendation).

The table persists as a compact ``.npz`` and serves lookups in O(1).

**How it is built.**  Rows go a block at a time, sized so one block's
float32 score matrix fits ``_BLOCK_BYTES``; there is no Python loop
per row.  :meth:`SimilarityIndex.topk_block` scores each row of the
block with its own GEMV — the bytes a single ``topk`` call scores with.
One GEMM over the block would be faster, but it accumulates in a
different order and moves most scores by an ulp, which reorders near
ties.  It then selects the ``fetch`` best with one 2-D
``argpartition`` and orders them by ``(-score, id)`` with one sort of
packed keys.  The filter (:func:`_kept`) reaches the per-row walk's
answer without walking: a candidate whose shop and brand occurrence
ranks are under their caps is kept for certain, a row whose first
``k`` candidates are all certain keeps them, and only the remaining
"suspect" rows iterate to the walk's fixed point.  On the bench world
(2 000 items, ``k`` = 50, fetch 200) about a quarter of the rows are
suspect in cosine mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.similarity import SimilarityIndex
from repro.data.schema import BehaviorDataset
from repro.utils import ZeroCopyPickle, get_logger, require, require_positive

logger = get_logger("serving.candidates")

#: Bytes of one block's float32 score matrix (``rows x n_items``).  The
#: build's transient stays this size as the catalogue grows, and no
#: single numpy call runs long beside a live gateway.
_BLOCK_BYTES = 1 << 20


@dataclass
class CandidateTableConfig:
    """Build-time knobs of the candidate table."""

    k: int = 50
    fetch_factor: int = 4
    max_per_shop: int | None = 10
    max_per_brand: int | None = 10
    min_score: float | None = None

    def validate(self) -> None:
        require_positive(self.k, "k")
        require_positive(self.fetch_factor, "fetch_factor")
        if self.max_per_shop is not None:
            require_positive(self.max_per_shop, "max_per_shop")
        if self.max_per_brand is not None:
            require_positive(self.max_per_brand, "max_per_brand")


class CandidateTable(ZeroCopyPickle):
    """Immutable ranked candidate lists, one per item.

    Construct via :func:`build_candidate_table` or :meth:`load`.
    """

    def __init__(
        self,
        items: np.ndarray,
        candidates: np.ndarray,
        scores: np.ndarray,
    ) -> None:
        require(candidates.shape == scores.shape, "candidates/scores mismatch")
        require(len(items) == len(candidates), "items/candidates mismatch")
        self._items = np.asarray(items, dtype=np.int64)
        self._candidates = candidates
        self._scores = scores
        self._row = {int(i): r for r, i in enumerate(items)}
        # Sorted view for vectorized batch lookups via searchsorted.
        order = np.argsort(self._items, kind="stable")
        self._sorted_items = self._items[order]
        self._sorted_rows = order.astype(np.int64)

    @property
    def k(self) -> int:
        return self._candidates.shape[1]

    @property
    def item_ids(self) -> np.ndarray:
        """Item ids the table can answer, in build (row) order."""
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item_id: int) -> bool:
        return int(item_id) in self._row

    def lookup(self, item_id: int) -> tuple[np.ndarray, np.ndarray]:
        """``(candidate_ids, scores)`` for one item.

        Rows are padded to width ``k``: pad ids are ``-1`` and pad
        scores are ``NaN`` (a pad is *not* a zero-similarity candidate);
        ``candidate_ids >= 0`` is the valid mask.
        """
        row = self._row.get(int(item_id))
        if row is None:
            raise KeyError(f"item {item_id} not in the candidate table")
        return self._candidates[row], self._scores[row]

    def topk(self, item_id: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Evaluator-compatible lookup truncated to ``k`` valid entries."""
        candidates, scores = self.lookup(item_id)
        valid = candidates >= 0
        return candidates[valid][:k], scores[valid][:k]

    def _rows_of(self, item_ids: np.ndarray) -> np.ndarray:
        """Vectorized item-id -> row mapping (``-1`` for unknown ids)."""
        pos = np.searchsorted(self._sorted_items, item_ids)
        pos = np.clip(pos, 0, len(self._sorted_items) - 1)
        rows = self._sorted_rows[pos]
        return np.where(self._items[rows] == item_ids, rows, -1)

    def topk_batch(self, item_ids: np.ndarray, k: int) -> np.ndarray:
        """Batched lookups for the HR evaluator (pads with ``-1``).

        Resolves every id with one ``searchsorted`` and gathers all rows
        with a single fancy index — no per-item Python dict lookups.
        """
        require_positive(k, "k")
        item_ids = np.asarray(item_ids, dtype=np.int64)
        out = np.full((len(item_ids), k), -1, dtype=np.int64)
        if len(item_ids) == 0 or len(self._items) == 0:
            return out
        kk = min(k, self.k)
        rows = self._rows_of(item_ids)
        found = rows >= 0
        out[found, :kk] = self._candidates[rows[found], :kk]
        return out

    def subset(self, item_ids: np.ndarray) -> "CandidateTable":
        """A new table restricted to ``item_ids`` (must all be present).

        Used to shard a table across workers or to simulate partial
        nightly coverage (items listed after the build are absent and
        must be served by the live-ANN tier).
        """
        item_ids = np.asarray(item_ids, dtype=np.int64)
        rows = self._rows_of(item_ids)
        require(bool(np.all(rows >= 0)), "subset contains unknown items")
        return CandidateTable(
            self._items[rows], self._candidates[rows], self._scores[rows]
        )

    def save(self, path: "str | Path") -> None:
        """Persist as a compressed ``.npz``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            items=self._items,
            candidates=self._candidates,
            scores=self._scores,
        )

    @classmethod
    def load(cls, path: "str | Path") -> "CandidateTable":
        """Inverse of :meth:`save`."""
        data = np.load(Path(path))
        return cls(data["items"], data["candidates"], data["scores"])


def _groups(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices that walk a ``(rows, width)`` matrix of non-negative
    codes row by row, each row in ``(code, position)`` order.

    Returns ``(order, inverse, starts)``: the flat position of each slot
    of that walk, the slot of each flat position, and for each slot the
    slot its code's run starts at.
    """
    n_rows, width = codes.shape
    shift = width.bit_length()
    packed = np.sort(codes << shift | np.arange(width), axis=1)
    base = np.arange(n_rows)[:, None] * width
    order = ((packed & ((1 << shift) - 1)) + base).ravel()
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    slots = np.arange(width)
    starts = np.where(np.diff(packed >> shift, axis=1, prepend=-1) != 0, slots, 0)
    return order, inverse, (np.maximum.accumulate(starts, axis=1) + base).ravel()


def _under_caps(groups: list, kept: np.ndarray) -> np.ndarray:
    """Positions whose code, in every ``(groups, cap)``, has fewer than
    ``cap`` ``kept`` positions before it in the same row."""
    ok = np.ones(kept.size, dtype=bool)
    for (order, inverse, starts), cap in groups:
        in_order = kept.ravel()[order]
        before = np.cumsum(in_order) - in_order
        before -= before[starts]
        ok &= (before < cap)[inverse]
    return ok.reshape(kept.shape)


def _kept(
    ids: np.ndarray, scores: np.ndarray, k: int, min_score: float | None, caps: list
) -> np.ndarray:
    """Which of each row's ranked raw neighbours the table keeps.

    ``caps`` holds ``(codes, cap)`` per capped attribute, ``codes`` the
    attribute's dense code per item id.  The rule is sequential: walk the
    row in rank order, stop at the first score below ``min_score`` or
    after ``k`` keeps, and skip a candidate whose shop or brand already
    has ``cap`` *kept* candidates (one skipped for its brand uses up no
    slot of its shop).  It is computed without a walk.  A position whose
    shop and brand occurrence ranks, over all earlier positions, are
    under their caps is kept for certain: kept counts never exceed
    occurrence counts.  A row whose first ``k`` live positions are all
    certain keeps exactly those.  Only the other ("suspect") rows look
    past position ``k``, and only up to their ``k``-th certain keep: they
    iterate ``kept <- live & under_caps(kept)`` to its fixed point, which
    is the walk's answer, since every pass settles at least one more
    position from the left.
    """
    live = np.ones(ids.shape, dtype=bool) if min_score is None else ~(scores < min_score)
    head = min(k, ids.shape[1])
    kept = live.copy()
    kept[:, head:] = False
    certain = _under_caps(
        [(_groups(codes[ids[:, :head]]), cap) for codes, cap in caps], live[:, :head]
    )
    suspect = np.flatnonzero((live[:, :head] & ~certain).any(axis=1))
    live = live[suspect]
    groups = [(_groups(codes[ids[suspect]]), cap) for codes, cap in caps]
    # Nothing after a row's k-th certain keep can reach its first k keeps.
    certain = live & _under_caps(groups, live)
    live &= np.cumsum(certain, axis=1) - certain < k
    walk = certain
    while not np.array_equal(walk, step := live & _under_caps(groups, walk)):
        walk = step
    kept[suspect] = walk & (np.cumsum(walk, axis=1) <= k)
    return kept


def build_candidate_table(
    index: SimilarityIndex,
    dataset: BehaviorDataset,
    config: CandidateTableConfig | None = None,
    items: np.ndarray | None = None,
) -> CandidateTable:
    """Materialize the candidate table from a retrieval index.

    Fetches ``k * fetch_factor`` raw neighbours per item, applies the
    diversity/score filters, and keeps the top ``k`` survivors, one
    block of rows at a time (see the module docstring).

    ``items`` restricts the *rows* built (e.g. one HBGP shard's items);
    candidates are still drawn from the full index, so a sharded table
    answers exactly like the corresponding rows of a full build.
    """
    config = config or CandidateTableConfig()
    config.validate()
    if items is None:
        item_ids = index.item_ids
    else:
        item_ids = np.asarray(items, dtype=np.int64)
        require(
            bool(np.isin(item_ids, index.item_ids).all()),
            "table rows must be items of the index",
        )
    k = config.k
    fetch = min(k * config.fetch_factor, max(index.n_items - 1, 1))
    caps = []
    for name, cap in (("shop", config.max_per_shop), ("brand", config.max_per_brand)):
        if cap is not None:
            values = [item.si_values[name] for item in dataset.items]
            caps.append((np.unique(values, return_inverse=True)[1], cap))

    # Pads stay NaN so "no candidate" is never confused with a real
    # zero-similarity score; `candidates >= 0` is the valid mask.
    candidates = np.full((len(item_ids), k), -1, dtype=np.int64)
    scores = np.full((len(item_ids), k), np.nan)
    block = max(1, _BLOCK_BYTES // (4 * index.n_items))
    for start in range(0, len(item_ids), block):
        raw_items, raw_scores = index.topk_block(item_ids[start : start + block], fetch)
        kept = _kept(raw_items, raw_scores, k, config.min_score, caps)
        rows, cols = np.nonzero(kept)
        slots = (np.cumsum(kept, axis=1) - 1)[rows, cols]
        candidates[start + rows, slots] = raw_items[rows, cols]
        scores[start + rows, slots] = raw_scores[rows, cols]
    logger.info(
        "candidate table: %d items x top-%d (fetch %d)",
        len(item_ids),
        k,
        fetch,
    )
    return CandidateTable(item_ids.copy(), candidates, scores)
