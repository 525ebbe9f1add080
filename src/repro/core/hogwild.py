"""Parallel SGNS training: shared-memory Hogwild and a process-level TNS.

The paper's systems contribution (TNS/ATNS, Section III) exists to make
skip-gram training scale across workers.  :mod:`repro.distributed.engine`
reproduces that *algorithm* faithfully under a simulated cost model; this
module is the real thing on one machine: ``ParallelSGNSTrainer`` places
``w_in``/``w_out`` in POSIX shared memory (``multiprocessing.shared_memory``)
and runs N OS worker processes doing minibatch SGD over disjoint
sequence shards.

Three of the paper's ideas carry over directly:

- **Disjoint shards** play the role of TNS's per-worker pair streams:
  each worker trains only its own sequences, so two workers rarely
  aggregate gradients for the same parameter row in the same step.
- **HBGP shard assignment** (``shard_strategy="hbgp"``) routes each
  sequence to the worker owning the majority of its tokens' partition,
  mirroring the paper's insight that partition-local traffic minimizes
  cross-worker parameter conflicts — here, conflicts are racy lost
  updates instead of RPCs.
- **ATNS hot-token replication**: the hottest tokens (SI hubs, user
  types) appear in *every* shard, so their output rows would be the
  contended cache lines.  Each worker keeps a private replica of those
  rows and merges accumulated deltas every ``sync_interval`` batches —
  either into the shared matrix under a lock (``hot_sync="lock"``, pure
  Hogwild) or through a dedicated parameter-server process over pipes
  (``hot_sync="server"``, the paper's actual TNS architecture; see
  :mod:`repro.core.paramserver`).

The worker hot path is built for scaling, not just correctness:

- **Pipelined pair feed** (:mod:`repro.core.pairfeed`): pair
  materialization can run in a producer process per worker, writing
  double-buffered shared-memory pair blocks, so SGD never stalls at an
  epoch boundary waiting for Python-level pair generation.
- **Batched worker loop**: negatives are drawn one *block* (many
  minibatches) at a time and hot-row index translation is precomputed
  per block — the per-step interpreter overhead that made oversubscribed
  workers anti-scale is off the hot path.  The step itself is the
  sequential trainer's (:func:`repro.core.sgns.sgns_gradients`,
  :func:`~repro.core.sgns.lr_at`, :func:`~repro.core.sgns.scatter_update`,
  :class:`repro.core.sampling.AliasSampler`), so single-process and
  multi-process training move parameters the same way and quality parity
  is an empirical check of staleness only (asserted in
  ``benchmarks/bench_training_throughput.py``).

Worker processes are started with the ``fork`` method: the read-only
state (sequences, alias table, config) is inherited copy-on-write and
the shared-memory mappings stay shared for writes.  Platforms without
``fork`` fall back to running the shards sequentially in-process —
identical results, no speedup.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from dataclasses import dataclass

import numpy as np
from multiprocessing import shared_memory

from repro.core.pairfeed import (
    EpochPairFeed,
    PipelinedPairFeed,
    resolve_feed_mode,
)
from repro.core.paramserver import (
    HotRowParameterServer,
    ServerHotSync,
    _pin_to_cpu,
)
from repro.core.sampling import AliasSampler, pairs_per_sequence
from repro.core.sgns import SGNSConfig, fit_prelude, lr_at, sgns_gradients
from repro.utils import ensure_rng, get_logger, require, require_positive

logger = get_logger("core.hogwild")

_SHARD_STRATEGIES = ("contiguous", "hbgp")
_HOT_SYNCS = ("lock", "server")

#: Pairs covered by one negative-sampling draw / hot-row translation in
#: the worker loop (many minibatches share one block).
_BLOCK_PAIRS = 1 << 16


def _assign_balanced(
    free: np.ndarray,
    weights: np.ndarray,
    targets: np.ndarray,
    loads: np.ndarray,
) -> None:
    """Spread ``free`` sequences over workers by deficit filling.

    Array-ops replacement for the greedy LPT loop: sort the free
    sequences by descending weight, compute each worker's *deficit*
    against the post-assignment ideal load, and bin the sorted cumulative
    weight axis into the deficits (largest first) with one
    ``searchsorted``.  Every bin receives at most its deficit plus one
    straddling sequence, so the max load stays within one sequence
    weight of ideal — LPT-grade balance without the per-sequence Python
    loop.  Mutates ``targets`` and ``loads`` in place.
    """
    if len(free) == 0:
        return
    n_workers = len(loads)
    order = free[np.argsort(-weights[free], kind="stable")]
    w = weights[order].astype(np.float64)
    ideal = (loads.sum() + w.sum()) / n_workers
    deficits = np.maximum(ideal - loads, 0.0)
    bin_order = np.argsort(-deficits, kind="stable")
    bounds = np.cumsum(deficits[bin_order])
    starts = np.concatenate(([0.0], np.cumsum(w)[:-1]))
    slot = np.minimum(
        np.searchsorted(bounds, starts, side="right"), n_workers - 1
    )
    assigned = bin_order[slot]
    targets[order] = assigned
    loads += np.bincount(assigned, weights=w, minlength=n_workers)


def shard_sequences(
    sequences: list[np.ndarray],
    n_workers: int,
    window: int = 5,
    token_partition: np.ndarray | None = None,
    balance: float = 1.25,
) -> list[np.ndarray]:
    """Assign sequences to ``n_workers`` disjoint shards.

    Without ``token_partition``, sequences are spread by deficit-filling
    on their expected pair count (near-perfect balance).  With it (HBGP
    mode), each sequence goes to the worker owning the majority of its
    tokens' partitions; shards exceeding ``balance`` times the mean load
    evict their smallest sequences, which are re-spread — locality
    first, balance as a bound.

    Fully vectorized: the majority vote is one ``bincount`` over the
    flattened corpus and the eviction cut one ``cumsum``/``searchsorted``
    per overloaded shard, so assignment cost is O(tokens) array work
    rather than a per-sequence interpreter loop (timed and asserted in
    ``benchmarks/bench_training_throughput.py``).

    Returns one sorted array of sequence indices per worker.
    """
    require_positive(n_workers, "n_workers")
    require(balance >= 1.0, f"balance must be >= 1.0, got {balance}")
    n_seqs = len(sequences)
    lengths = np.fromiter(
        (len(s) for s in sequences), dtype=np.int64, count=n_seqs
    )
    weights = pairs_per_sequence(lengths, window)
    targets = np.full(n_seqs, -1, dtype=np.int64)
    loads = np.zeros(n_workers, dtype=np.float64)

    if token_partition is not None and n_seqs:
        token_partition = np.asarray(token_partition, dtype=np.int64)
        flat = (
            np.concatenate(sequences)
            if lengths.sum()
            else np.empty(0, dtype=np.int64)
        )
        seq_of = np.repeat(np.arange(n_seqs), lengths)
        owners = token_partition[flat]
        valid = (owners >= 0) & (owners < n_workers)
        votes = np.bincount(
            seq_of[valid] * n_workers + owners[valid],
            minlength=n_seqs * n_workers,
        ).reshape(n_seqs, n_workers)
        owned = np.flatnonzero(votes.sum(axis=1) > 0)
        targets[owned] = votes[owned].argmax(axis=1)
        loads += np.bincount(
            targets[owned], weights=weights[owned], minlength=n_workers
        )
        # Balance bound: overloaded shards evict their smallest
        # sequences (least locality loss), keeping at least one.
        cap = balance * weights.sum() / n_workers
        for wid in np.flatnonzero(loads > cap):
            members = np.flatnonzero(targets == wid)
            order = members[np.argsort(weights[members], kind="stable")]
            cum = np.cumsum(weights[order])
            n_evict = int(
                np.searchsorted(cum, loads[wid] - cap, side="left")
            ) + 1
            n_evict = min(n_evict, len(order) - 1)
            if n_evict <= 0:
                continue
            evicted = order[:n_evict]
            targets[evicted] = -1
            loads[wid] -= weights[evicted].sum()

    _assign_balanced(np.flatnonzero(targets == -1), weights, targets, loads)
    return [
        np.flatnonzero(targets == wid).astype(np.int64)
        for wid in range(n_workers)
    ]


def resolve_n_workers(
    n_workers: "int | str", n_shardable: "int | None" = None
) -> int:
    """Resolve a worker-count request against the host.

    ``"auto"`` picks ``os.cpu_count()`` capped by the number of
    shardable sequences — you can never use more workers than shards,
    and asking for more workers than cores anti-scales.  An explicit
    integer is honoured but logged loudly when it oversubscribes the
    box: that exact condition (4 workers on a 1-core container)
    produced a *regressing* 4-worker curve that read as an engine bug.
    """
    cores = os.cpu_count() or 1
    if isinstance(n_workers, str):
        require(
            n_workers == "auto",
            f"n_workers must be a positive int or 'auto', got {n_workers!r}",
        )
        resolved = cores if n_shardable is None else max(
            1, min(cores, n_shardable)
        )
        logger.info(
            "n_workers='auto' -> %d (%d cores, %s shardable sequences)",
            resolved,
            cores,
            "?" if n_shardable is None else n_shardable,
        )
        return resolved
    n = int(n_workers)
    require_positive(n, "n_workers")
    if n > cores:
        logger.warning(
            "n_workers=%d exceeds the %d available CPU core%s:"
            " workers will time-slice, throughput will NOT stack and may"
            " regress vs fewer workers. Use n_workers='auto' to fit the"
            " host, and read any scaling numbers from this box with the"
            " recorded host context.",
            n,
            cores,
            "" if cores == 1 else "s",
        )
    return n


class LockHotSync:
    """Hot-row reconciliation against the shared matrix under a lock.

    The Hogwild-mode counterpart of
    :class:`repro.core.paramserver.ServerHotSync` (same ``pull`` /
    ``merge`` / ``close`` surface): deltas are folded into
    ``w_out[hot_ids]`` while holding a ``multiprocessing.Lock``.
    """

    def __init__(self, w_out: np.ndarray, hot_ids: np.ndarray, lock) -> None:
        self._w_out = w_out
        self._hot_ids = hot_ids
        self._lock = lock

    def pull(self) -> np.ndarray:
        with self._lock:
            return self._w_out[self._hot_ids]

    def merge(self, delta: np.ndarray) -> np.ndarray:
        with self._lock:
            self._w_out[self._hot_ids] += delta
            return self._w_out[self._hot_ids]

    def close(self) -> None:
        """No-op (nothing held outside the shared matrix)."""


@dataclass
class WorkerReport:
    """Per-worker training accounting, read back from shared memory."""

    worker_id: int
    pairs: int
    losses: list[float]


@dataclass
class _WorkerTask:
    """Everything one worker needs beyond the shared state."""

    worker_id: int
    feed: object
    sync: object  # LockHotSync | ServerHotSync | None
    neg_seed: int
    total_pairs: int
    pin_index: "int | None"


class ParallelSGNSTrainer:
    """Multi-process SGNS over shared-memory parameter matrices.

    Drop-in quality replacement for :class:`repro.core.sgns.SGNSTrainer`
    (same ``fit(sequences, counts)`` surface, same ``w_in``/``w_out``
    result attributes); training is lock-free and therefore *not*
    bit-reproducible across runs when ``n_workers > 1``.

    Parameters
    ----------
    vocab_size:
        Number of tokens; fixes the shared matrix shapes.
    config:
        The sequential trainer's hyper-parameters, reused verbatim.
        ``dtype="float32"`` is recommended: it halves the shared-memory
        footprint and memory traffic.
    n_workers:
        Worker processes, or ``"auto"`` (``os.cpu_count()`` capped by
        the number of sequences at fit time).  ``1`` runs the worker
        loop inline (no fork).  Requests exceeding the core count are
        honoured but warned about loudly — they anti-scale.
    shard_strategy:
        ``"contiguous"`` (pair-count-balanced deficit spread) or
        ``"hbgp"`` (majority-partition routing; requires
        ``token_partition`` at :meth:`fit` time).
    sync_interval:
        Batches between hot-replica merges (ATNS cadence).  Short
        intervals bound drift tighter at slightly more sync traffic.
    hot_threshold:
        Relative-frequency threshold above which a token's output row is
        replicated per worker.  ``>= 1.0`` disables replication (pure
        Hogwild on every row).
    hot_sync:
        ``"lock"`` merges replicas into shared memory under a lock (the
        Hogwild engine); ``"server"`` exchanges deltas with a dedicated
        parameter-server process over pipes (the TNS engine — the
        paper's architecture, for the regime where the lock contends).
    pair_feed:
        ``"inline"`` materializes each epoch's pairs in the worker,
        ``"pipelined"`` runs a producer process per worker over
        double-buffered shm blocks, ``"auto"`` pipelines only when the
        host has spare cores for the producer stages.

    Workers (and the parameter server) are pinned to a core each via
    ``sched_setaffinity`` exactly when the host has a core per worker;
    ``pinned`` records whether that happened.
    """

    def __init__(
        self,
        vocab_size: int,
        config: SGNSConfig | None = None,
        n_workers: "int | str" = 4,
        shard_strategy: str = "contiguous",
        sync_interval: int = 8,
        hot_threshold: float = 1e-3,
        hot_sync: str = "lock",
        pair_feed: str = "auto",
    ) -> None:
        require_positive(vocab_size, "vocab_size")
        require_positive(sync_interval, "sync_interval")
        require(
            shard_strategy in _SHARD_STRATEGIES,
            f"shard_strategy must be one of {_SHARD_STRATEGIES},"
            f" got {shard_strategy!r}",
        )
        require(
            hot_sync in _HOT_SYNCS,
            f"hot_sync must be one of {_HOT_SYNCS}, got {hot_sync!r}",
        )
        require(hot_threshold > 0, "hot_threshold must be positive")
        resolve_feed_mode(pair_feed, 1, True)  # validates the mode name
        self.config = config or SGNSConfig()
        self.config.validate()
        self.vocab_size = vocab_size
        self.requested_workers = (
            n_workers if n_workers == "auto" else int(n_workers)
        )
        if self.requested_workers != "auto":
            require_positive(self.requested_workers, "n_workers")
        self.n_workers = 1 if n_workers == "auto" else int(n_workers)
        self.shard_strategy = shard_strategy
        self.sync_interval = sync_interval
        self.hot_threshold = hot_threshold
        self.hot_sync = hot_sync
        self.pair_feed = pair_feed
        self.w_in: np.ndarray | None = None
        self.w_out: np.ndarray | None = None
        self.loss_history: list[float] = []
        self.pairs_trained = 0
        self.worker_reports: list[WorkerReport] = []
        self.shard_sizes: list[int] = []
        self.n_hot = 0
        self.feed_mode = "inline"
        self.hot_sync_used = hot_sync
        self.pinned = False

    # ------------------------------------------------------------------

    def fit(
        self,
        sequences: list[np.ndarray],
        counts: np.ndarray,
        keep_probabilities: np.ndarray | None = None,
        token_partition: np.ndarray | None = None,
    ) -> "ParallelSGNSTrainer":
        """Train over ``sequences`` with ``n_workers`` processes.

        Parameters mirror :meth:`repro.core.sgns.SGNSTrainer.fit`;
        ``token_partition`` (token id -> partition id, ``-1`` for
        unowned) activates HBGP-locality sharding when
        ``shard_strategy="hbgp"``.
        """
        cfg = self.config
        counts, sampler, keep = fit_prelude(
            cfg, self.vocab_size, counts, keep_probabilities
        )
        if self.shard_strategy == "hbgp" and token_partition is None:
            raise ValueError(
                "shard_strategy='hbgp' requires a token_partition array"
            )
        self.n_workers = resolve_n_workers(
            self.requested_workers, max(len(sequences), 1)
        )
        n_workers = self.n_workers

        shards = shard_sequences(
            sequences,
            n_workers,
            window=cfg.window,
            token_partition=(
                token_partition if self.shard_strategy == "hbgp" else None
            ),
        )
        self.shard_sizes = [len(s) for s in shards]
        lengths = np.fromiter(
            (len(s) for s in sequences), dtype=np.int64, count=len(sequences)
        )
        weights = pairs_per_sequence(lengths, cfg.window)
        sides = 1 if cfg.directional else 2
        shard_pairs = [
            int(weights[shard].sum()) * sides * cfg.epochs for shard in shards
        ]

        # Hot set: tokens frequent enough to be touched by every shard.
        total = max(int(counts.sum()), 1)
        hot_ids = np.flatnonzero(counts / total >= self.hot_threshold)
        hot_row = np.full(self.vocab_size, -1, dtype=np.int64)
        hot_row[hot_ids] = np.arange(len(hot_ids))
        self.n_hot = len(hot_ids)

        # Init from the seed rng *first* so w_in is bit-identical to the
        # sequential trainer's for the same config; worker seeds come
        # from the stream after it.
        rng = ensure_rng(cfg.seed)
        dtype = cfg.param_dtype
        d = cfg.dim

        fork_available = "fork" in multiprocessing.get_all_start_methods()
        use_fork = n_workers > 1 and fork_available
        if n_workers > 1 and not use_fork:
            logger.warning(
                "fork start method unavailable; running %d shards"
                " sequentially in-process",
                n_workers,
            )
        self.feed_mode = resolve_feed_mode(
            self.pair_feed, n_workers, fork_available
        )
        cores = os.cpu_count() or 1
        self.pinned = (
            use_fork
            and cores >= n_workers
            and cores > 1
            and hasattr(os, "sched_setaffinity")
        )

        shm_params = shared_memory.SharedMemory(
            create=True, size=2 * self.vocab_size * d * dtype.itemsize
        )
        shm_stats = shared_memory.SharedMemory(
            create=True, size=n_workers * cfg.epochs * 2 * 8
        )
        feeds: list = []
        server = None
        try:
            w_in = np.ndarray(
                (self.vocab_size, d), dtype=dtype, buffer=shm_params.buf
            )
            w_out = np.ndarray(
                (self.vocab_size, d),
                dtype=dtype,
                buffer=shm_params.buf,
                offset=self.vocab_size * d * dtype.itemsize,
            )
            # Same init convention as the sequential trainer.
            w_in[:] = ((rng.random((self.vocab_size, d)) - 0.5) / d).astype(dtype)
            w_out[:] = 0.0
            # One pair-stream seed and one negatives seed per worker; the
            # split is what makes inline and pipelined feeds emit the
            # *same* pair stream (the producer owns the pair RNG).
            worker_seeds = rng.integers(0, 2**31 - 1, size=(n_workers, 2))
            stats = np.ndarray(
                (n_workers, cfg.epochs, 2), dtype=np.float64,
                buffer=shm_stats.buf,
            )
            stats[:] = 0.0

            ctx = (
                multiprocessing.get_context("fork") if fork_available else None
            )
            self.hot_sync_used = self.hot_sync
            if self.hot_sync == "server" and not fork_available:
                logger.warning(
                    "hot_sync='server' requires the fork start method;"
                    " falling back to the in-process lock merge"
                )
                self.hot_sync_used = "lock"
            if (
                self.hot_sync_used == "server"
                and self.n_hot
                and ctx is not None
            ):
                server = HotRowParameterServer(
                    w_out,
                    hot_ids,
                    n_workers,
                    ctx,
                    pin_cpu=(n_workers % cores) if self.pinned else None,
                )

            tasks = []
            lock = (ctx or multiprocessing).Lock()
            for wid in range(n_workers):
                shard_seqs = [sequences[i] for i in shards[wid]]
                pair_seed = int(worker_seeds[wid, 0])
                if self.feed_mode == "pipelined":
                    feed = PipelinedPairFeed(
                        shard_seqs, cfg, keep, pair_seed, ctx=ctx
                    )
                else:
                    feed = EpochPairFeed(shard_seqs, cfg, keep, pair_seed)
                feeds.append(feed)
                if not self.n_hot:
                    sync = None
                elif server is not None:
                    sync = ServerHotSync(server.connection(wid))
                else:
                    sync = LockHotSync(w_out, hot_ids, lock)
                tasks.append(
                    _WorkerTask(
                        worker_id=wid,
                        feed=feed,
                        sync=sync,
                        neg_seed=int(worker_seeds[wid, 1]),
                        total_pairs=shard_pairs[wid],
                        pin_index=wid if self.pinned else None,
                    )
                )

            # Producer stages and the parameter server fork *before* the
            # workers so every process inherits the right mappings.
            for feed in feeds:
                feed.start()
            if server is not None:
                server.start()

            if use_fork:
                procs = [
                    ctx.Process(
                        target=_worker_entry,
                        args=(
                            tasks[wid], w_in, w_out, sampler, cfg, hot_row,
                            self.sync_interval, stats,
                        ),
                        daemon=True,
                    )
                    for wid in range(n_workers)
                ]
                for p in procs:
                    p.start()
                for p in procs:
                    p.join()
                failed = [i for i, p in enumerate(procs) if p.exitcode != 0]
                if failed:
                    raise RuntimeError(
                        f"parallel workers {failed} exited non-zero"
                    )
            else:
                for wid in range(n_workers):
                    _worker_entry(
                        tasks[wid], w_in, w_out, sampler, cfg, hot_row,
                        self.sync_interval, stats,
                    )

            if server is not None:
                # Publishes the merged hot rows into w_out, then exits.
                server.join()
                server = None

            self.w_in = np.array(w_in)
            self.w_out = np.array(w_out)
            report = np.array(stats)
        finally:
            for feed in feeds:
                feed.close()
            if server is not None:  # failure path: don't leak the process
                try:
                    server.join(timeout=5.0)
                except RuntimeError as exc:  # pragma: no cover - abnormal
                    logger.warning("parameter server cleanup: %s", exc)
            shm_params.close()
            shm_params.unlink()
            shm_stats.close()
            shm_stats.unlink()

        self.worker_reports = [
            WorkerReport(
                worker_id=wid,
                pairs=int(report[wid, :, 1].sum()),
                losses=[float(x) for x in report[wid, :, 0]],
            )
            for wid in range(n_workers)
        ]
        self.pairs_trained = sum(r.pairs for r in self.worker_reports)
        # Pair-weighted mean loss per epoch across workers.
        self.loss_history = []
        for epoch in range(cfg.epochs):
            pairs = report[:, epoch, 1].sum()
            loss = (
                float((report[:, epoch, 0] * report[:, epoch, 1]).sum() / pairs)
                if pairs > 0
                else 0.0
            )
            self.loss_history.append(loss)
        logger.info(
            "%s fit: %d workers (%s feed%s), %d pairs, %d hot rows,"
            " final loss %.4f",
            "tns" if self.hot_sync_used == "server" else "hogwild",
            n_workers,
            self.feed_mode,
            ", pinned" if self.pinned else "",
            self.pairs_trained,
            self.n_hot,
            self.loss_history[-1] if self.loss_history else float("nan"),
        )
        return self


def _worker_entry(
    task: _WorkerTask,
    w_in: np.ndarray,
    w_out: np.ndarray,
    sampler: AliasSampler,
    cfg: SGNSConfig,
    hot_row: np.ndarray,
    sync_interval: int,
    stats: np.ndarray,
) -> None:
    """Process entry point; isolates worker crashes into exit codes."""
    try:
        _worker_loop(
            task, w_in, w_out, sampler, cfg, hot_row, sync_interval, stats
        )
    except Exception:  # pragma: no cover - surfaced via exit code
        traceback.print_exc()
        raise SystemExit(1)


def _worker_loop(
    task: _WorkerTask,
    w_in: np.ndarray,
    w_out: np.ndarray,
    sampler: AliasSampler,
    cfg: SGNSConfig,
    hot_row: np.ndarray,
    sync_interval: int,
    stats: np.ndarray,
) -> None:
    """One worker's epochs: the sequential trainer's update rule over a
    batched hot path.

    Structure: the feed yields one epoch's materialized pairs; the loop
    walks them in *blocks* (one negative-sampling draw and one hot-row
    translation per block) and, inside a block, in minibatches of
    ``cfg.batch_size`` (one SGD step each).  Hot output rows are served
    from a private replica reconciled through ``task.sync``; everything
    else is read/written lock-free in shared memory.
    """
    _pin_to_cpu(task.pin_index)
    rng = ensure_rng(task.neg_seed)
    dim = cfg.dim
    negs = cfg.negatives
    batch = cfg.batch_size
    block = max(batch, _BLOCK_PAIRS)
    scatter = cfg.scatter
    sync = task.sync
    if sync is not None:
        base = np.array(sync.pull(), dtype=w_out.dtype, copy=True)
        replica = base.copy()
        delta = np.empty_like(base)

    def merge_replica() -> None:
        np.subtract(replica, base, out=delta)
        merged = sync.merge(delta)
        base[:] = merged
        replica[:] = merged

    seen = 0
    since_sync = 0
    for epoch, (epoch_centers, epoch_contexts) in enumerate(task.feed.epochs()):
        epoch_loss = 0.0
        epoch_pairs = 0
        n_pairs = len(epoch_centers)
        for bstart in range(0, n_pairs, block):
            bend = min(bstart + block, n_pairs)
            blk_centers = epoch_centers[bstart:bend]
            blk_contexts = epoch_contexts[bstart:bend]
            nb = bend - bstart
            negatives = sampler.sample((nb, negs), rng)
            if sync is not None:
                blk_hot_pos = hot_row[blk_contexts]
                blk_hot_neg = hot_row[negatives.ravel()]
            for s in range(0, nb, batch):
                e = min(s + batch, nb)
                centers = blk_centers[s:e]
                contexts = blk_contexts[s:e]
                neg_flat = negatives[s:e].reshape(-1)
                n_mb = e - s
                lr = lr_at(cfg, seen, task.total_pairs)

                c_pos = w_out[contexts]
                c_neg = w_out[neg_flat]
                if sync is not None:
                    # Hot rows are read from (and below, written to) the
                    # private replica, not the shared matrix.
                    h_pos = blk_hot_pos[s:e]
                    h_neg = blk_hot_neg[s * negs : e * negs]
                    m_pos = h_pos >= 0
                    m_neg = h_neg >= 0
                    c_pos[m_pos] = replica[h_pos[m_pos]]
                    c_neg[m_neg] = replica[h_neg[m_neg]]
                grad_w, grad_c_pos, grad_c_neg, loss = sgns_gradients(
                    w_in[centers], c_pos, c_neg.reshape(n_mb, negs, dim)
                )
                scatter(w_in, centers, grad_w, lr)
                # Positive and negative output rows are one combined
                # scatter, as in the sequential trainer.
                out_tokens = np.concatenate((contexts, neg_flat))
                out_grads = np.concatenate(
                    (grad_c_pos, grad_c_neg.reshape(-1, dim))
                )
                if sync is not None:
                    hot = np.concatenate((m_pos, m_neg))
                    if hot.any():
                        hot_sel = np.concatenate((h_pos, h_neg))
                        scatter(replica, hot_sel[hot], out_grads[hot], lr)
                        out_tokens, out_grads = out_tokens[~hot], out_grads[~hot]
                scatter(w_out, out_tokens, out_grads, lr)

                seen += n_mb
                epoch_pairs += n_mb
                epoch_loss += loss * n_mb
                since_sync += 1
                if sync is not None and since_sync >= sync_interval:
                    merge_replica()
                    since_sync = 0
        stats[task.worker_id, epoch, 0] = epoch_loss / max(epoch_pairs, 1)
        stats[task.worker_id, epoch, 1] = epoch_pairs
    if sync is not None:
        merge_replica()
        sync.close()
