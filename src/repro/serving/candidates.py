"""The nightly item-to-item candidate table.

Stores, for every item the matcher can answer, its exact top-``k``
neighbours under the model's own similarity — the index's answer,
precomputed — so the first serving tier is an O(1) lookup that returns
what the offline evaluator scores.  Self exclusion is the index's; there
is no other filter.  The table persists as a compact ``.npz``.

**How it is built.**  Rows go a block at a time, sized so one block's
float32 score matrix fits ``_BLOCK_BYTES``; there is no Python loop
per row.  Each block is one :meth:`SimilarityIndex.topk_block` call at
depth ``k``, which scores every row with its own GEMV — the bytes a
single ``topk`` call scores with — and cuts ties by ascending id, so a
row is byte for byte ``index.topk(item, k)``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.similarity import SimilarityIndex
from repro.utils import get_logger, require, require_positive

logger = get_logger("serving.candidates")

#: Bytes of one block's float32 score matrix (``rows x n_items``).  The
#: build's transient stays this size as the catalogue grows, and no
#: single numpy call runs long beside a live gateway.
_BLOCK_BYTES = 1 << 20


class CandidateTable:
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

    def answers(self, item_id: int, k: int) -> bool:
        """Whether the table holds ``item_id``'s full top-``k``: a deeper
        request must go to a tier that can rank past the table's depth."""
        return k <= self.k and int(item_id) in self._row

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


def build_candidate_table(
    index: SimilarityIndex, k: int = 50, items: np.ndarray | None = None
) -> CandidateTable:
    """The top-``k`` of every item, one block of rows at a time.

    ``items`` restricts the *rows* built (e.g. one HBGP shard's items);
    candidates are still drawn from the full index, so a sharded table
    answers exactly like the corresponding rows of a full build.
    """
    require_positive(k, "k")
    if items is None:
        item_ids = index.item_ids
    else:
        item_ids = np.asarray(items, dtype=np.int64)
        require(
            bool(np.isin(item_ids, index.item_ids).all()),
            "table rows must be items of the index",
        )
    # Pads (a catalogue smaller than k + 1) stay NaN so "no candidate" is
    # never confused with a real zero-similarity score; `candidates >= 0`
    # is the valid mask.
    candidates = np.full((len(item_ids), k), -1, dtype=np.int64)
    scores = np.full((len(item_ids), k), np.nan)
    block = max(1, _BLOCK_BYTES // (4 * index.n_items))
    for start in range(0, len(item_ids), block):
        ids, top = index.topk_block(item_ids[start : start + block], k)
        rows = slice(start, start + len(ids))
        candidates[rows, : ids.shape[1]] = ids
        scores[rows, : ids.shape[1]] = top
    logger.info("candidate table: %d items x top-%d", len(item_ids), k)
    return CandidateTable(item_ids.copy(), candidates, scores)
