"""The matching service: one request path over one or many HBGP shards.

The paper partitions the item space with HBGP (Sec. III-B) so skip-gram
work rarely crosses workers.  The same locality argument applies online:
shard the serving artifacts by HBGP partition and a nightly refresh of
one item shard never rebuilds — or blocks — the others.  An
unpartitioned catalogue is simply the partition with one part, so there
is one service class: :class:`MatchingService` reads a tuple of
per-shard bundles, and a plain
:class:`~repro.serving.store.ModelStore` hands it a tuple of one.

Layout
------

- :func:`~repro.serving.store.build_shard_bundle`, the one bundle
  builder, materializes one partition's artifacts: the partition's rows
  of the candidate table (candidates still drawn from the *full*
  catalogue, so the union of the shard tables is the one-shard table), a
  per-shard :class:`~repro.core.similarity.SimilarityIndex` slice + IVF
  index, and the partition's slice of the global popularity ranking.
- :class:`ShardedModelStore` holds one double-buffered
  :class:`~repro.serving.store.ModelStore` per partition plus the HBGP
  ``item -> shard`` map; shards swap independently.
- :class:`MatchingService` (alias :class:`ShardedMatchingService`)
  resolves a request through the tier chain, cheapest first:

  1. ``table`` — an O(1) hit in the owning shard's precomputed
     candidate table;
  2. ``ann`` — live IVF retrieval for a trained item the table missed:
     its query vector is scattered to every shard and the per-shard
     partial top-k lists merge by score (all shards score against the
     same normalized embedding space, so partials are comparable);
  3. ``cold_item`` — a brand-new item is served from the sum of its SI
     input vectors (Eq. 6), scattered the same way;
  4. ``cold_user`` — a no-history user is served from the average of
     the user-type vectors matching their demographics (Sec. IV-C);
  5. ``popularity`` — the last resort: the per-shard slices of the
     global click ranking, merged.

- :func:`promote` is the one flip protocol the refresh daemon and the
  stream applier both promote through.

Merges break score ties by item id — the order every tier artifact
already uses — so the answer for a request does not depend on how many
shards the catalogue is cut into.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from repro.core.coldstart import cold_user_vector, infer_cold_item_vector
from repro.core.model import EmbeddingModel
from repro.core.similarity import SimilarityIndex
from repro.data.schema import BehaviorDataset
from repro.graph.hbgp import PartitionResult
from repro.serving.cache import LRUTTLCache
# bench/trace.py wraps this module's binding of the name.
from repro.serving.candidates import build_candidate_table  # noqa: F401
from repro.serving.metrics import ServingMetrics, to_jsonable
from repro.serving.service import (
    MatchingServiceConfig,
    MatchRequest,
    MatchResult,
)
from repro.serving.store import ModelBundle, ModelStore, build_shard_bundle
from repro.utils import get_logger, require, require_positive

logger = get_logger("serving.sharding")


# ----------------------------------------------------------------------
# per-shard bundle construction
# ----------------------------------------------------------------------


def _build_shards(
    model: EmbeddingModel,
    dataset: BehaviorDataset,
    item_partition: np.ndarray,
    shards: Iterable[int],
    **build_kwargs,
) -> dict[int, ModelBundle]:
    """``{shard: bundle}`` for ``shards`` of ``item_partition``.

    The full similarity index is built once and sliced per shard.
    """
    index = SimilarityIndex(model, mode=build_kwargs.get("mode", "cosine"))
    return {
        shard: build_shard_bundle(
            model,
            dataset,
            np.flatnonzero(item_partition == shard),
            index=index,
            **build_kwargs,
        )
        for shard in shards
    }


def build_shard_bundles(
    model: EmbeddingModel,
    dataset: BehaviorDataset,
    partition: PartitionResult,
    **build_kwargs,
) -> tuple[list[ModelBundle], np.ndarray]:
    """All shard bundles for ``partition`` plus the item -> shard map."""
    assignment = partition.serving_assignment()
    bundles = _build_shards(
        model, dataset, assignment, range(partition.n_partitions), **build_kwargs
    )
    return list(bundles.values()), assignment


# ----------------------------------------------------------------------
# the sharded store
# ----------------------------------------------------------------------


class ShardedModelStore:
    """One double-buffered :class:`ModelStore` per HBGP partition.

    Each shard swaps independently: refreshing one partition's artifacts
    leaves every other shard's bundle (and any in-flight snapshot of it)
    untouched.  ``snapshot()`` grabs one consistent view — a tuple of
    per-shard bundles — which requests hold for their whole lifetime.
    """

    def __init__(
        self, bundles: Sequence[ModelBundle], item_partition: np.ndarray
    ) -> None:
        require(len(bundles) > 0, "need at least one shard bundle")
        item_partition = np.asarray(item_partition, dtype=np.int64)
        require(
            int(item_partition.max(initial=-1)) < len(bundles),
            "item_partition references a shard with no bundle",
        )
        self._stores = [ModelStore(bundle) for bundle in bundles]
        self._item_partition = item_partition

    @classmethod
    def build(
        cls,
        model: EmbeddingModel,
        dataset: BehaviorDataset,
        partition: PartitionResult,
        **build_kwargs,
    ) -> "ShardedModelStore":
        """Build every shard of ``partition`` and stand up the store."""
        bundles, assignment = build_shard_bundles(
            model, dataset, partition, **build_kwargs
        )
        return cls(bundles, assignment)

    @property
    def n_shards(self) -> int:
        return len(self._stores)

    def __len__(self) -> int:
        return len(self._stores)

    @property
    def item_partition(self) -> np.ndarray:
        """The item -> shard ownership map (read-only by convention)."""
        return self._item_partition

    @property
    def versions(self) -> list[int]:
        """Per-shard live bundle versions."""
        return [store.version for store in self._stores]

    #: What reports print as ``store_version``: an ``int`` for a
    #: :class:`ModelStore`, the per-shard list here — callers read
    #: ``store.version`` without asking which kind they hold.
    version = versions

    @property
    def generation_age_s(self) -> float:
        """Age of the *stalest* shard's live generation, in seconds."""
        return max(store.generation_age_s for store in self._stores)

    def update_partition(
        self, item_partition: np.ndarray, allow_moves: bool = False
    ) -> None:
        """Install a new item -> shard map (e.g. after new items listed).

        By default existing items must keep their owning shard — moving
        an item would tear it between its old shard's table and its new
        shard's index for in-flight snapshots; the nightly refresh only
        *extends* the map with newly listed items.  The reference
        assignment is atomic, so readers see either the old or the new
        map, never a partial one.

        ``allow_moves=True`` is the streaming applier's incremental
        re-route path: it swaps the affected shards' bundles *before*
        installing the map, so a request in flight across the flip sees
        either (old map, old bundles) — the item answered by its old
        shard — or (new map, new bundles).  The one transient a reader
        can observe is (old bundles snapshot, new map): the moved item
        then misses both table and index and falls back to popularity
        for that request — a degraded answer, never a torn or wrong one.
        """
        item_partition = np.asarray(item_partition, dtype=np.int64)
        old = self._item_partition
        require(
            len(item_partition) >= len(old),
            "new partition map must cover every existing item",
        )
        if not allow_moves:
            require(
                bool(np.array_equal(item_partition[: len(old)], old)),
                "existing items cannot change shards in a partition update",
            )
        require(
            int(item_partition.max(initial=-1)) < len(self._stores),
            "item_partition references a shard with no bundle",
        )
        self._item_partition = item_partition

    def shard_of(self, item_id: int) -> int | None:
        """Owning shard of ``item_id`` (``None`` for out-of-map ids)."""
        item = int(item_id)
        if 0 <= item < len(self._item_partition):
            return int(self._item_partition[item])
        return None

    def current(self, shard_id: int) -> ModelBundle:
        """The live bundle of one shard."""
        return self._stores[shard_id].current()

    def snapshot(self) -> tuple[ModelBundle, ...]:
        """One consistent per-request view: every shard's live bundle."""
        return tuple(store.current() for store in self._stores)

    def swap_shard(self, shard_id: int, bundle: ModelBundle) -> ModelBundle:
        """Install ``bundle`` as shard ``shard_id``'s live generation.

        Other shards are untouched; returns the shard's old bundle.
        """
        old = self._stores[shard_id].swap(bundle)
        logger.info(
            "shard %d swapped v%d -> v%d (others untouched)",
            shard_id,
            old.version,
            self._stores[shard_id].version,
        )
        return old

    def build_generation(
        self,
        model: EmbeddingModel,
        dataset: BehaviorDataset,
        shards: Iterable[int] | None = None,
        partition: np.ndarray | None = None,
        **build_kwargs,
    ) -> tuple[dict[int, ModelBundle], np.ndarray]:
        """Build the next generation: ``({shard: bundle}, partition)``.

        The expensive half of a promotion, run outside every lock; hand
        the result to :func:`promote`.  ``shards`` limits the rebuild to
        those shards (default: all of them); ``partition`` is the item ->
        shard map the generation is cut by (default: the live one).
        Every bundle is built before the caller flips the first one, so a
        failure here can never tear a promotion.
        """
        if partition is None:
            partition = self._item_partition
        if shards is None:
            shards = range(self.n_shards)
        bundles = _build_shards(
            model, dataset, partition, sorted(shards), **build_kwargs
        )
        return bundles, partition

    def refresh_shard(
        self,
        shard_id: int,
        model: EmbeddingModel,
        dataset: BehaviorDataset,
        **build_kwargs,
    ) -> ModelBundle:
        """Rebuild one shard's artifacts and swap them in.

        The expensive build touches only this shard's items and runs
        outside every lock; only the shard's pointer flip is serialized.
        """
        bundles, _ = self.build_generation(
            model, dataset, shards=[shard_id], **build_kwargs
        )
        return self.swap_shard(shard_id, bundles[shard_id])


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------


def merge_topk(
    parts: Sequence[tuple[np.ndarray, np.ndarray]],
    k: int,
    exclude_item: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard partial top-k lists into one global top-k.

    Pads (``id < 0`` / NaN score) are dropped; ties break by item id,
    matching the stable orderings of the tier artifacts.
    """
    require_positive(k, "k")
    ids = np.concatenate([np.asarray(p[0]).ravel() for p in parts])
    scores = np.concatenate([np.asarray(p[1]).ravel() for p in parts])
    valid = (ids >= 0) & np.isfinite(scores)
    if exclude_item is not None:
        valid &= ids != int(exclude_item)
    ids, scores = ids[valid], scores[valid]
    order = np.lexsort((ids, -scores))[:k]
    return ids[order].astype(np.int64), scores[order]


def freshest_model(bundles: Sequence[ModelBundle]) -> EmbeddingModel:
    """The newest generation's model among ``bundles``.

    Shards can run mixed generations after a partial refresh; cold-start
    vectors and warm-start training have no owning shard, so the
    freshest model wins.
    """
    return max(bundles, key=lambda bundle: bundle.version).model


class MatchingService:
    """Answers ``recommend(request, k)`` through the tiered fallback chain.

    Written against one read interface — ``store.snapshot()`` (a tuple
    of per-shard bundles, held for the whole request so a hot swap never
    mixes generations within it) and ``store.shard_of(item)`` — which
    both store kinds provide, so the request path never asks how many
    shards there are:

    - ``MatchingService(ModelStore(bundle), config)`` serves an
      unpartitioned catalogue as the one-shard case;
    - ``ShardedMatchingService(ShardedModelStore, config, pool=...)``
      (the same class) serves N HBGP shards.

    Routing: a warm item goes to its owning shard, and a candidate-table
    hit is answered there; everything that needs retrieval over the full
    catalogue (table misses, cold-start vectors) scatters one query
    vector to *all* shards and merges the partial top-k lists.  A batch
    scatters once for all its rows.

    Results are cached keyed by the *owning shard's* version for table
    hits — so refreshing shard A leaves shard B's cached answers warm —
    and by the full version vector for everything else.

    Parameters
    ----------
    store:
        A :class:`~repro.serving.store.ModelStore` or a
        :class:`ShardedModelStore`.
    config:
        Request-path knobs (cache size/TTL, default ``k``, ANN probes).
    cache, metrics:
        Injectable for tests; sensible defaults otherwise.  Pass
        ``config.cache_size = 0`` to disable caching entirely.
    pool:
        Optional :class:`~repro.serving.parallel.ShardWorkerPool`; when
        given, gather work runs one-process-per-shard so throughput
        scales past the GIL.  Swap shards through :meth:`swap_shard` so
        the worker processes stay in sync with the store.
    """

    def __init__(
        self,
        store: "ModelStore | ShardedModelStore",
        config: MatchingServiceConfig | None = None,
        cache: LRUTTLCache | None = None,
        metrics: ServingMetrics | None = None,
        pool=None,
    ) -> None:
        self._config = config or MatchingServiceConfig()
        self._config.validate()
        self._store = store
        if cache is None and self._config.cache_size > 0:
            cache = LRUTTLCache(
                maxsize=self._config.cache_size, ttl=self._config.cache_ttl
            )
        self._cache = cache
        self._metrics = metrics or ServingMetrics()
        self._shard_metrics = [ServingMetrics() for _ in store.snapshot()]
        self._pool = pool

    @property
    def store(self) -> "ModelStore | ShardedModelStore":
        return self._store

    @property
    def cache(self) -> LRUTTLCache | None:
        return self._cache

    @property
    def metrics(self) -> ServingMetrics:
        return self._metrics

    @property
    def shard_metrics(self) -> list[ServingMetrics]:
        """Per-shard metrics (gather latency, local table traffic)."""
        return self._shard_metrics

    def close(self) -> None:
        """Shut down the worker pool, if any."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "MatchingService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def swap_shard(self, shard_id: int, bundle: ModelBundle) -> ModelBundle:
        """Swap one shard in the store *and* its worker process."""
        old = self._store.swap_shard(shard_id, bundle)
        self._metrics.incr("swaps")
        if self._pool is not None:
            self._pool.swap(shard_id, self._store.snapshot()[shard_id])
        return old

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------

    def recommend(
        self, request: "MatchRequest | int", k: int | None = None
    ) -> MatchResult:
        """Resolve one request — a batch of one, so the coalescer that
        turns singles into batches cannot change an answer.

        ``request`` may be a bare item id (the common warm case) or a
        full :class:`MatchRequest`.
        """
        return self.recommend_batch([request], k)[0]

    def recommend_batch(
        self, requests: "list[MatchRequest | int]", k: int | None = None
    ) -> list[MatchResult]:
        """Resolve many requests, micro-batching the scatter-gather work.

        Cache hits, table hits and popularity requests resolve one by
        one (they are O(1)); every request that needs vector retrieval
        is collected and answered with *one* ``topk_by_vector_batch``
        call per shard — one scatter for the whole batch instead of
        per-request fan-outs.  The whole batch is served from one
        snapshot, so a hot swap mid-batch cannot mix generations.
        """
        k = self._config.default_k if k is None else k
        require_positive(k, "k")
        requests = [self._normalize(request) for request in requests]
        bundles = self._store.snapshot()
        versions = tuple(bundle.version for bundle in bundles)
        results: list[MatchResult | None] = [None] * len(requests)
        gather: list[tuple] = []  # (row, key, vector, exclude, tier) to scatter
        self._metrics.incr("requests", len(requests))
        try:
            for row, request in enumerate(requests):
                item = request.item_id
                shard = None if item is None else self._store.shard_of(item)
                key = self._cache_key(bundles, versions, shard, request, k)
                results[row] = self._probe(key)
                if results[row] is not None:
                    continue
                start = time.perf_counter()
                answer, query = self._resolve(bundles, request, k, shard)
                if answer is None:
                    gather.append((row, key, *query))
                else:
                    results[row] = self._record(
                        key, *answer, time.perf_counter() - start
                    )
            if gather:
                rows, keys, vectors, excludes, tiers = zip(*gather)
                start = time.perf_counter()
                parts = self._scatter(
                    bundles,
                    np.stack(vectors),
                    k,
                    np.asarray(excludes, dtype=np.int64),
                )
                merged = [
                    merge_topk(
                        [(ids[i], scores[i]) for ids, scores in parts],
                        k,
                        exclude_item=exclude if exclude >= 0 else None,
                    )
                    for i, exclude in enumerate(excludes)
                ]
                per_request = (time.perf_counter() - start) / len(rows)
                newest = max(versions)
                for row, key, tier, (items, scores) in zip(rows, keys, tiers, merged):
                    results[row] = self._record(
                        key, items, scores, tier, newest, per_request
                    )
        except Exception:
            self._metrics.incr("errors")
            raise
        return results  # type: ignore[return-value]

    def knows_item(self, item_id: int) -> bool:
        """Whether ``item_id`` resolves through a warm tier (table or ANN).

        The serving-side HR@K evaluator uses this as the answerability
        test — items only reachable via popularity count as misses.
        """
        item = int(item_id)
        shard = self._store.shard_of(item)
        if shard is None:
            return False
        bundle = self._store.snapshot()[shard]
        return item in bundle.table or item in bundle.ann

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Metrics + cache + store state in one JSON-serializable dict.

        ``store_version`` is the store's own ``version`` (an ``int`` for
        a :class:`ModelStore`, a per-shard list for a
        :class:`ShardedModelStore`); a store of several shards
        additionally reports ``n_shards`` and the per-shard metrics
        under ``shards``.
        """
        snap = self._metrics.snapshot()
        snap["store_version"] = self._store.version
        snap["cache"] = self._cache.stats() if self._cache is not None else None
        if self._store.n_shards > 1:
            snap["shards"] = [
                {"shard": shard, **metrics.snapshot()}
                for shard, metrics in enumerate(self._shard_metrics)
            ]
            snap["n_shards"] = self._store.n_shards
        return to_jsonable(snap)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize(request: "MatchRequest | int") -> MatchRequest:
        if isinstance(request, MatchRequest):
            return request
        return MatchRequest(item_id=int(request))

    def _cache_key(
        self,
        bundles: tuple[ModelBundle, ...],
        versions: tuple[int, ...],
        shard: int | None,
        request: MatchRequest,
        k: int,
    ) -> "tuple | None":
        """Version-scoped cache key (``None`` with the cache off).

        Table hits depend only on the owning shard's generation, so a
        swap of shard A does not cold-start shard B's cached answers;
        anything scattered depends on every shard's generation.
        """
        if self._cache is None:
            return None
        if shard is not None and request.item_id in bundles[shard].table:
            return ("shard", shard, versions[shard], k, request.cache_key())
        return ("all", versions, k, request.cache_key())

    def _probe(self, key: "tuple | None") -> MatchResult | None:
        """The one cache probe: a hit is a served request like any other,
        timed and put on the ``cache`` histogram so snapshot quantiles
        describe the whole traffic, not just the miss path."""
        if key is None:
            return None
        start = time.perf_counter()
        hit = self._cache.get(key)
        if hit is None:
            self._metrics.incr("cache_miss")
            return None
        latency = time.perf_counter() - start
        self._metrics.incr("cache_hit")
        self._metrics.observe("cache", latency)
        return MatchResult(hit.items, hit.scores, hit.tier, hit.version, True, latency)

    def _record(
        self,
        key: "tuple | None",
        items: np.ndarray,
        scores: np.ndarray,
        tier: str,
        version: int,
        latency: float,
    ) -> MatchResult:
        """Account for one resolved request and run the one cache fill."""
        self._metrics.observe(tier, latency)
        result = MatchResult(items, scores, tier, version, False, latency)
        if key is not None:
            self._cache.put(key, result)
        return result

    def _resolve(
        self,
        bundles: tuple[ModelBundle, ...],
        request: MatchRequest,
        k: int,
        shard: int | None,
    ) -> "tuple[tuple | None, tuple | None]":
        """Walk the tier chain as far as one shard can take it.

        Returns ``(answer, None)`` for the tiers answered on the spot —
        ``(items, scores, tier, version)`` from the owning shard's table
        or from popularity — and ``(None, query)`` for the tiers that
        score a vector against every shard: ``(vector, exclude_item,
        tier)`` with ``exclude_item = -1`` for none.
        """
        if shard is not None:
            item = int(request.item_id)
            home = bundles[shard]
            if item in home.table:
                start = time.perf_counter()
                items, scores = home.table.topk(item, k)
                if len(items):
                    self._shard_metrics[shard].incr("table_hits")
                    self._shard_metrics[shard].observe(
                        "table", time.perf_counter() - start
                    )
                    return (items, scores, "table", home.version), None
            if item in home.index:
                return None, (home.index.query_vector(item), item, "ann")
        if request.si_values:
            try:
                vector = infer_cold_item_vector(
                    freshest_model(bundles), request.si_values
                )
            except ValueError:
                pass  # no SI instance in vocabulary; keep falling
            else:
                return None, (vector, -1, "cold_item")
        if request.has_demographics:
            try:
                vector = cold_user_vector(
                    freshest_model(bundles),
                    gender=request.gender,
                    age_bucket=request.age_bucket,
                    purchase_power=request.purchase_power,
                )
            except ValueError:
                pass  # demographics outside every trained user type
            else:
                return None, (vector, -1, "cold_user")
        return self._popularity(bundles, request, k), None

    def _scatter(
        self,
        bundles: tuple[ModelBundle, ...],
        vectors: np.ndarray,
        k: int,
        exclude_items: np.ndarray,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Query every shard with the same vector block; collect partials.

        With a worker pool, shards compute in their own processes in
        parallel; otherwise they are queried in-process, one after the
        other (numpy releases the GIL inside the matrix products, so
        threads calling ``recommend`` concurrently still overlap).
        """
        if self._pool is not None:
            parts, timings = self._pool.scatter(
                vectors, k, self._config.n_probe, exclude_items
            )
        else:
            parts, timings = [], []
            for bundle in bundles:
                start = time.perf_counter()
                parts.append(
                    bundle.ann.topk_by_vector_batch(
                        vectors,
                        k,
                        n_probe=self._config.n_probe,
                        exclude_items=exclude_items,
                    )
                )
                timings.append(time.perf_counter() - start)
        for metrics, elapsed in zip(self._shard_metrics, timings):
            metrics.incr("gathers")
            metrics.observe("gather", elapsed)
        return parts

    @staticmethod
    def _popularity(
        bundles: tuple[ModelBundle, ...], request: MatchRequest, k: int
    ) -> tuple[np.ndarray, np.ndarray, str, int]:
        """Merge the shards' slices of the global click ranking.

        Each slice is already in global order, so the global top-``k``
        lies within every slice's first ``k + 1`` (one spare for the
        excluded query item).
        """
        exclude = int(request.item_id) if request.item_id is not None else None
        items, scores = merge_topk(
            [
                (b.popular_items[: k + 1], b.popular_scores[: k + 1])
                for b in bundles
            ],
            k,
            exclude_item=exclude,
        )
        version = max(bundle.version for bundle in bundles)
        return items, scores, "popularity", version


#: The same class under the name its N-shard call sites use.
ShardedMatchingService = MatchingService


# ----------------------------------------------------------------------
# promotion
# ----------------------------------------------------------------------


def serving_target(
    target, metrics: ServingMetrics | None = None
) -> "tuple[ModelStore | ShardedModelStore, ServingMetrics]":
    """``(store, metrics)`` behind a refresh/stream target.

    ``target`` is a store or a service wrapping one.  Passing the
    *service* is preferred: swaps then go through
    :meth:`MatchingService.swap_shard` so an attached worker pool stays
    in sync, and the caller's metrics default to the service's own (one
    ``snapshot()`` shows serving and refresh).
    """
    service = target if hasattr(target, "recommend") else None
    if metrics is None:
        metrics = service.metrics if service is not None else ServingMetrics()
    return (service.store if service is not None else target), metrics


def promote(
    target,
    bundles: "dict[int, ModelBundle]",
    partition: np.ndarray | None = None,
    allow_moves: bool = False,
    gate=None,
) -> "list[int] | int":
    """The flip protocol: install ``{shard: bundle}`` on ``target``.

    The cheap half of a promotion — every bundle is already built, so a
    build failure can never tear one.  In order:

    1. swap every rebuilt shard, through the service when ``target`` is
       one so a worker pool follows;
    2. install the new ``partition`` map (sharded stores; ``None`` keeps
       the current one) — *after* the swaps, so a reader sees (old map,
       old bundles) or (new map, new bundles), never a moved item's new
       owner without its bundle;
    3. release the retired generation only after the last flip: its
       zero-copy segments may be shared across shard bundles (the model
       matrices), and release is unlink-only — readers still holding a
       snapshot keep valid pages until their references drop.

    With a ``gate`` (the network gateway's swap gate) all of it runs
    inside one ``gate(flip)`` call, i.e. only while no coalesced batch
    is in flight.  Returns the store's ``version`` after the flip.
    """
    store, _ = serving_target(target)

    def flip() -> "list[int] | int":
        retired = [
            target.swap_shard(shard, bundle) for shard, bundle in bundles.items()
        ]
        if partition is not None:
            store.update_partition(partition, allow_moves=allow_moves)
        for bundle in retired:
            bundle.release()
        return store.version

    return flip() if gate is None else gate(flip)
