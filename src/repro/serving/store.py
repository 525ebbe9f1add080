"""Double-buffered model store: atomic hot swap of serving artifacts.

The paper's deployment recomputes *all* embeddings daily (Sec. V), which
means the online matcher must pick up a new model + ANN index + candidate
table every night without dropping requests.  The classic recipe is
double buffering: the refresh pipeline builds a complete
:class:`ModelBundle` off to the side (the expensive part — k-means,
table materialization — happens outside any lock), then the store swaps
a single reference under a lock.  In-flight requests keep the bundle
snapshot they grabbed at arrival, so a swap can never tear a request
between yesterday's table and today's index.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from repro.core.ann import IVFIndex
from repro.core.model import EmbeddingModel
from repro.core.similarity import SimilarityIndex
from repro.data.schema import BehaviorDataset
from repro.serving.candidates import CandidateTable, build_candidate_table
from repro.utils import get_logger, require

logger = get_logger("serving.store")


@dataclass(frozen=True)
class ModelBundle:
    """One immutable generation of serving artifacts.

    Attributes
    ----------
    version:
        Monotonically increasing generation number (assigned by the
        store on swap).
    model:
        The trained embedding model (needed for cold-start vectors).
    index:
        Exact similarity index (query-vector access, exhaustive top-K).
    ann:
        IVF approximate index — the live-retrieval tier.
    table:
        Nightly precomputed candidate table — the O(1) tier.
    popular_items, popular_scores:
        Click-ranked items for the popularity fallback tier; scores are
        normalized click shares.
    generation:
        Store-wide swap number, stamped by a sharded store on every
        shard swap; it orders generations across shards, which the
        per-shard ``version`` cannot.
    """

    version: int
    model: EmbeddingModel
    index: SimilarityIndex
    ann: IVFIndex
    table: CandidateTable
    popular_items: np.ndarray
    popular_scores: np.ndarray
    generation: int = 0


#: Items kept in a shard's popularity-fallback list.
_POPULAR_LIST_SIZE = 1000

#: Candidates per candidate-table row; a request for more falls through
#: to the ANN tier.
_TABLE_DEPTH = 50


def popularity_ranking(
    dataset: BehaviorDataset, max_items: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Items ranked by click count; scores are normalized click shares.

    The last-resort tier: when a request matches nothing (unknown item
    with no usable SI, demographics outside every trained user type),
    serving *something* plausible beats serving nothing.
    """
    if dataset.sessions:
        clicks = np.concatenate(
            [np.asarray(session.items, dtype=np.int64) for session in dataset.sessions]
        )
        counts = np.bincount(clicks, minlength=dataset.n_items).astype(np.int64)
    else:
        counts = np.zeros(dataset.n_items, dtype=np.int64)
    order = np.argsort(-counts, kind="stable")
    if max_items is not None:
        order = order[:max_items]
    total = counts.sum()
    scores = counts[order] / total if total else np.zeros(len(order))
    return order.astype(np.int64), scores


def build_shard_bundle(
    model: EmbeddingModel,
    dataset: BehaviorDataset,
    shard_items: np.ndarray,
    n_cells: int | None = None,
    n_probe: int = 4,
    table_coverage: float = 1.0,
    seed: "int | np.random.Generator | None" = 0,
    index: SimilarityIndex | None = None,
    popularity: "tuple[np.ndarray, np.ndarray] | None" = None,
    ann_precision: str = "float32",
    ann_rerank: int = 4,
) -> ModelBundle:
    """Materialize the serving artifacts of the items one shard owns.

    The one builder: an HBGP partition passes its items, an unpartitioned
    catalogue passes all of them (:func:`build_bundle`).  This is the
    expensive half of a refresh — the top-k scans for the candidate-table
    rows, the IVF k-means, quantizer training — and it touches only
    ``shard_items``, so one partition rebuilds without rebuilding the
    world; run it *before* the swap so the swap itself stays O(1).  Pass
    a prebuilt full ``index`` and the dataset's :func:`popularity_ranking`
    as ``popularity`` to amortize them when building several shards at
    once.

    ``table_coverage < 1.0`` keeps only that fraction of items in the
    candidate table — the rest fall through to the live-ANN tier, like
    items listed after the nightly build.  The covered set is the first
    ``table_coverage`` fraction of the *global* index order, intersected
    with the shard, and candidates are drawn from the full catalogue: the
    union of all shard tables is the one-shard table, and only covered
    rows are ever scored.  Every artifact scores with the model's own
    similarity, so a table row is the index's top-``_TABLE_DEPTH``.

    ``ann_precision`` selects the retrieval tier's memory mode (int8 /
    product quantization with exact re-rank of ``ann_rerank * k``);
    ``n_cells`` is clamped to the shard's size.
    """
    require(0.0 < table_coverage <= 1.0, "table_coverage must be in (0, 1]")
    full = index if index is not None else SimilarityIndex(model)
    owned = np.asarray(shard_items, dtype=np.int64)
    shard_items = owned[np.isin(owned, full.item_ids)]
    require(
        len(shard_items) > 0,
        "shard owns no trained items; check the partition map",
    )

    covered = full.item_ids
    if table_coverage < 1.0:
        covered = covered[: max(1, int(full.n_items * table_coverage))]
    table = build_candidate_table(
        full, _TABLE_DEPTH, items=shard_items[np.isin(shard_items, covered)]
    )

    # A shard that owns every indexed item serves the index as it is.
    shard_index = (
        full
        if np.array_equal(shard_items, full.item_ids)
        else full.restrict(shard_items)
    )
    ann = IVFIndex(
        shard_index,
        n_cells=None if n_cells is None else min(n_cells, shard_index.n_items),
        n_probe=n_probe,
        seed=seed,
        precision=ann_precision,
        rerank=ann_rerank,
    )

    # The shard's slice of the *global* click ranking: scores keep their
    # global normalization so per-shard lists merge back into the global
    # ordering by score alone.
    popular_items, popular_scores = (
        popularity if popularity is not None else popularity_ranking(dataset)
    )
    mask = np.isin(popular_items, owned)
    popular_items = popular_items[mask][:_POPULAR_LIST_SIZE]
    popular_scores = popular_scores[mask][:_POPULAR_LIST_SIZE]

    return ModelBundle(
        version=0,
        model=model,
        index=shard_index,
        ann=ann,
        table=table,
        popular_items=popular_items,
        popular_scores=popular_scores,
    )


def build_bundle(
    model: EmbeddingModel, dataset: BehaviorDataset, **build_kwargs
) -> ModelBundle:
    """:func:`build_shard_bundle` for the one shard that owns every item."""
    return build_shard_bundle(
        model, dataset, np.arange(dataset.n_items), **build_kwargs
    )


class ModelStore:
    """Holds the live :class:`ModelBundle`; swaps are atomic.

    ``current()`` hands out an immutable snapshot; requests must grab it
    once at arrival and use only that snapshot so a mid-request swap
    cannot mix generations.

    The store is also the one-shard case of
    :class:`~repro.serving.sharding.ShardedModelStore`: ``snapshot()``,
    ``shard_of()``, ``build_generation()`` and ``swap_shard()`` are the
    read/build/flip interface the matching service, the refresh daemon,
    the stream applier and the promotion protocol are written against.
    The live state a writer promotes from — ``model``, ``catalogue``
    and the partition — lives here and nowhere else.
    """

    n_shards = 1

    def __init__(self, bundle: ModelBundle) -> None:
        self._lock = threading.Lock()
        self._bundle = replace(bundle, version=max(bundle.version, 0))
        self._swapped_at = time.time()
        self._swapped_monotonic = time.monotonic()
        #: The dataset the live generation was built from (items, users,
        #: sessions); ``None`` until a ``promote`` installs one.
        self.catalogue: BehaviorDataset | None = None
        #: Held by every writer from reading the live state to the flip.
        self.writer_lock = threading.RLock()

    def current(self) -> ModelBundle:
        """The live bundle (an immutable snapshot; safe to hold)."""
        # Reference reads are atomic in CPython; the lock is only needed
        # on the write side to serialize concurrent swappers.
        return self._bundle

    def snapshot(self) -> tuple[ModelBundle, ...]:
        """The per-request view: a one-bundle tuple."""
        return (self._bundle,)

    @property
    def model(self) -> EmbeddingModel:
        """The live generation's model: the next promotion's warm start."""
        return self._bundle.model

    def shard_of(self, item_id: int) -> int:
        """Every item id is owned by the one shard.

        Deliberately not a fixed-length map: a swapped-in bundle may
        carry items listed after this store was constructed, and whether
        an id is *known* is the bundle's call (table / index membership).
        """
        return 0

    @property
    def item_partition(self) -> np.ndarray:
        """The item -> shard map over the live bundle's ids: all zeros."""
        return np.zeros(int(self._bundle.index.item_ids.max()) + 1, dtype=np.int64)

    def build_generation(
        self,
        model: EmbeddingModel,
        dataset: BehaviorDataset,
        shards: "Iterable[int] | None" = None,
        partition: np.ndarray | None = None,
        **build_kwargs,
    ) -> "tuple[dict[int, ModelBundle], None]":
        """Build the next generation: ``({0: bundle}, None)``.

        The expensive half of a promotion, run outside every lock; hand
        the result to :func:`~repro.serving.sharding.promote` (or
        :meth:`swap`).  ``shards`` and ``partition`` are the sharded
        store's arguments: one shard has nothing to select or to map.
        """
        return {0: build_bundle(model, dataset, **build_kwargs)}, None

    def swap_shard(self, shard_id: int, bundle: ModelBundle) -> ModelBundle:
        """:meth:`swap` under the sharded store's signature."""
        require(shard_id == 0, "a ModelStore has exactly one shard")
        return self.swap(bundle)

    @property
    def version(self) -> int:
        """Version of the live bundle."""
        return self._bundle.version

    @property
    def swapped_at(self) -> float:
        """Wall-clock timestamp of the last swap, for logs/display only.

        Never subtract this from ``time.time()`` to get an age — an NTP
        step between swap and read would make the result negative or
        wildly inflated; use :attr:`generation_age_s`.
        """
        return self._swapped_at

    @property
    def generation_age_s(self) -> float:
        """Seconds since the live generation was installed (monotonic).

        The refresh daemon exports this as a gauge: a growing age with a
        running daemon means refreshes are failing (the circuit breaker
        and the drift gate both leave the old generation serving).
        Measured on the monotonic clock so wall-clock steps (NTP, DST,
        manual `date`) cannot produce a negative or inflated age.
        """
        return time.monotonic() - self._swapped_monotonic

    def swap(self, bundle: ModelBundle) -> ModelBundle:
        """Install ``bundle`` as the live generation; returns the old one.

        The incoming bundle's version is overwritten with
        ``old.version + 1`` so generations are strictly increasing no
        matter what the refresh pipeline stamped.
        """
        require(bundle is not None, "cannot swap in a null bundle")
        with self._lock:
            old = self._bundle
            self._bundle = replace(bundle, version=old.version + 1)
            self._swapped_at = time.time()
            self._swapped_monotonic = time.monotonic()
            logger.info(
                "hot swap: bundle v%d -> v%d (%d items in table)",
                old.version,
                self._bundle.version,
                len(self._bundle.table),
            )
            return old

    def refresh(
        self,
        model: EmbeddingModel,
        dataset: BehaviorDataset,
        **build_kwargs,
    ) -> ModelBundle:
        """Build artifacts for ``model`` and swap them in; returns the old bundle.

        Convenience wrapper for the nightly loop: the expensive build
        runs outside the lock, only the pointer flip is serialized.
        """
        bundles, _ = self.build_generation(model, dataset, **build_kwargs)
        return self.swap(bundles[0])
