"""Parallel SGNS training: shared-memory Hogwild and a process-level TNS.

The paper's systems contribution (TNS/ATNS, Section III) exists to make
skip-gram training scale across workers.  :mod:`repro.distributed.engine`
reproduces that *algorithm* faithfully under a simulated cost model; this
module is the real thing on one machine: ``ParallelSGNSTrainer`` places
``w_in``/``w_out`` in POSIX shared memory (``multiprocessing.shared_memory``)
and runs N OS worker processes doing minibatch SGD over disjoint
sequence shards.

Two of the paper's ideas carry over directly:

- **Disjoint shards** play the role of TNS's per-worker pair streams:
  each worker trains only its own sequences, so two workers rarely
  aggregate gradients for the same parameter row in the same step.
  The shards are spread by pair count alone.  HBGP placement (Section
  III-B) exists to keep skip-gram pairs off the network; in one address
  space a cross-partition pair costs nothing extra, and routing each
  sequence to its majority HBGP partition was measured slower and no
  better (DESIGN.md section 5c), so it is not an option here.
- **ATNS hot-token replication, behind the parameter server only**:
  the hottest tokens (SI hubs, user types) appear in *every* shard.
  ATNS gives each worker a private replica of their output rows and
  merges accumulated deltas every ``sync_interval`` batches — through a
  dedicated parameter-server process over pipes (``hot_sync="server"``,
  the paper's TNS architecture; see :mod:`repro.core.paramserver`), or
  into the shared matrix under a lock (``hot_sync="lock"``).  The
  replicas save *network* traffic across machines; in one address space
  they only add a slot translation, a gather overwrite, a second scatter
  and periodic merges for most of a step's output rows.  On a 2-vCPU
  host (the ``bench_training_throughput`` corpus, float32) 2 Hogwild
  workers ran at 1 268 k pairs/s with replicas and 1 754 k without, at
  the same HR@10 within its binomial σ.  So the Hogwild engine
  (``hot_sync="lock"``) trains every row lock-free in the shared matrix
  by default, as Hogwild SGD does (Recht et al., 2011), and replicas are
  opt-in there through an explicit ``hot_threshold``.

The worker hot path is built for scaling, not just correctness:

- **Pipelined pair feed** (:mod:`repro.core.pairfeed`): pair
  materialization can run in a producer process per worker, writing
  double-buffered shared-memory pair blocks, so SGD never stalls at an
  epoch boundary waiting for Python-level pair generation.
- **Batched worker loop**: negatives are drawn one *block* (many
  minibatches) at a time and hot-row index translation (when there are
  replicas) is precomputed per block — the per-step interpreter
  overhead that made oversubscribed workers anti-scale is off the hot
  path.  The step itself is the
  sequential trainer's (:func:`repro.core.sgns.sgns_gradients`,
  :func:`~repro.core.sgns.lr_at`, :func:`~repro.core.sgns.scatter_update`,
  :class:`repro.core.sampling.AliasSampler`), so single-process and
  multi-process training move parameters the same way and quality parity
  is an empirical check of staleness only (asserted in
  ``benchmarks/bench_training_throughput.py``).
- **Hot rows by position**: with replicas on, hot rows are most of a
  step's output rows (57.6 % on the ``hogwild`` benchmark's day-0
  corpus at ATNS's ``1e-3`` threshold, seed 1: 4.0 M pairs, 178 hot
  rows), so the step handles them by integer position, not by boolean
  mask (:class:`repro.core.sgns.HotRowSplit`).  The output tokens
  (contexts, then negatives) are gathered once with ``np.take`` and the
  hot positions overwritten from the replica; the one output-gradient
  block is split with ``np.take`` at the hot and cold positions.  The
  scatters get the mask form's arguments in the mask form's order, so
  the trained bytes are unchanged.  A worker without a replica skips
  the translation and shares one all-cold split (:data:`_ALL_COLD`):
  its gather is one ``np.take`` and its scatter one combined ``w_out``
  scatter.
- **Per-phase accounting**: each worker times its phases
  (:data:`PHASES`: feed wait, negative sampling, hot-row translation,
  gather, forward/backward, scatter, hot sync) per batch or per block
  into the shared stats block; :attr:`WorkerReport.phase_seconds` and
  the ``fit`` log line report them.

Worker processes are started with the ``fork`` method: the read-only
state (sequences, alias table, config) is inherited copy-on-write and
the shared-memory mappings stay shared for writes.  Platforms without
``fork`` fall back to running the shards sequentially in-process —
identical results, no speedup.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
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
from repro.core.sgns import (
    HotRowSplit,
    SGNSConfig,
    fit_prelude,
    lr_at,
    sgns_gradients,
)
from repro.utils import (
    available_cpus,
    ensure_rng,
    get_logger,
    require,
    require_positive,
)

logger = get_logger("core.hogwild")

_HOT_SYNCS = ("lock", "server")

#: Pairs covered by one negative-sampling draw / hot-row translation in
#: the worker loop (many minibatches share one block).
_BLOCK_PAIRS = 1 << 16

#: The worker loop's phases, timed per batch or per block: waiting on the
#: pair feed, negative sampling, hot-row translation (and the split of a
#: step's output rows), row gathers, the Eq. 3 forward/backward, the
#: scatters, and hot-replica pulls and merges.
PHASES = ("feed", "sample", "translate", "gather", "step", "scatter", "sync")

#: One worker's slots in the shared accounting block: the phase seconds,
#: then its wall seconds and the output rows it served from the replica.
_ACCOUNT_SLOTS = len(PHASES) + 2

#: ATNS's hot-set threshold, the default behind the parameter server.
_SERVER_HOT_THRESHOLD = 1e-3

#: The split of a worker without a replica: every output row is cold.
_ALL_COLD = HotRowSplit(np.empty(0, dtype=np.int64))


def shard_sequences(
    sequences: list[np.ndarray], n_workers: int, window: int = 5
) -> list[np.ndarray]:
    """Assign sequences to ``n_workers`` disjoint shards of balanced pair
    count.

    Deficit filling in array ops instead of a greedy LPT loop: sort the
    sequences by descending expected pair count and cut the cumulative
    pair axis into ``n_workers`` equal bins with one ``searchsorted``.
    Every bin receives at most its share plus one straddling sequence, so
    the max load stays within one sequence weight of ideal, at O(sequences)
    array cost (timed and asserted in
    ``benchmarks/bench_training_throughput.py``).

    Returns one sorted array of sequence indices per worker.
    """
    require_positive(n_workers, "n_workers")
    lengths = np.fromiter(
        (len(s) for s in sequences), dtype=np.int64, count=len(sequences)
    )
    weights = pairs_per_sequence(lengths, window)
    order = np.argsort(-weights, kind="stable")
    w = weights[order].astype(np.float64)
    bounds = np.cumsum(np.full(n_workers, w.sum() / n_workers))
    starts = np.cumsum(w) - w  # exact: pair counts are integers
    targets = np.empty(len(sequences), dtype=np.int64)
    targets[order] = np.minimum(
        np.searchsorted(bounds, starts, side="right"), n_workers - 1
    )
    return [np.flatnonzero(targets == wid) for wid in range(n_workers)]


def resolve_n_workers(
    n_workers: "int | str", n_shardable: "int | None" = None
) -> int:
    """Resolve a worker-count request against the host.

    ``"auto"`` picks :func:`~repro.utils.available_cpus` (the affinity
    mask, not the host's CPU count) capped by the number of
    shardable sequences — you can never use more workers than shards,
    and asking for more workers than cores anti-scales.  An explicit
    integer is honoured but logged loudly when it oversubscribes the
    box: that exact condition (4 workers on a 1-core container)
    produced a *regressing* 4-worker curve that read as an engine bug.
    """
    cores = available_cpus()
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
    #: Seconds spent in each of :data:`PHASES`.
    phase_seconds: dict[str, float]
    #: The worker loop's wall time; the phases sum to no more.
    seconds: float
    #: Share of the output rows of its steps served from the hot replica.
    hot_share: float


@dataclass
class _WorkerTask:
    """Everything one worker needs beyond the shared state."""

    worker_id: int
    feed: object
    sync: object  # LockHotSync | ServerHotSync | None
    neg_seed: int
    total_pairs: int
    pin_index: "int | None"
    #: This worker's ``_ACCOUNT_SLOTS`` row of the shared accounting block.
    account: np.ndarray


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
        Worker processes, or ``"auto"`` (the CPUs of the affinity mask,
        capped by the number of sequences at fit time).  ``1`` runs the worker
        loop inline (no fork).  Requests exceeding the core count are
        honoured but warned about loudly — they anti-scale.
    sync_interval:
        Batches between hot-replica merges (ATNS cadence).  Short
        intervals bound drift tighter at slightly more sync traffic.
    hot_threshold:
        Relative-frequency threshold above which a token's output row is
        replicated per worker; ``>= 1.0`` disables replication (pure
        Hogwild on every row).  ``None`` resolves per ``hot_sync``:
        ``1.0`` under ``"lock"`` (no replicas: in one address space they
        cost throughput and buy no HR@10, measured in the module
        docstring) and ATNS's ``1e-3`` under ``"server"``, whose process
        exists only to serve hot rows.  An explicit value wins in both
        modes.
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
        sync_interval: int = 8,
        hot_threshold: "float | None" = None,
        hot_sync: str = "lock",
        pair_feed: str = "auto",
    ) -> None:
        require_positive(vocab_size, "vocab_size")
        require_positive(sync_interval, "sync_interval")
        require(
            hot_sync in _HOT_SYNCS,
            f"hot_sync must be one of {_HOT_SYNCS}, got {hot_sync!r}",
        )
        if hot_threshold is None:
            hot_threshold = 1.0 if hot_sync == "lock" else _SERVER_HOT_THRESHOLD
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
    ) -> "ParallelSGNSTrainer":
        """Train over ``sequences`` with ``n_workers`` processes.

        Parameters mirror :meth:`repro.core.sgns.SGNSTrainer.fit`.
        """
        cfg = self.config
        counts, sampler, keep = fit_prelude(
            cfg, self.vocab_size, counts, keep_probabilities
        )
        self.n_workers = resolve_n_workers(
            self.requested_workers, max(len(sequences), 1)
        )
        n_workers = self.n_workers

        shards = shard_sequences(sequences, n_workers, window=cfg.window)
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
        cores = available_cpus()
        self.pinned = (
            use_fork
            and cores >= n_workers
            and cores > 1
            and hasattr(os, "sched_setaffinity")
        )

        # Both segments are created inside the ``try``: if the second
        # create fails, the first is still unlinked.
        shm_params = shm_stats = None
        feeds: list = []
        server = None
        try:
            shm_params = shared_memory.SharedMemory(
                create=True, size=2 * self.vocab_size * d * dtype.itemsize
            )
            shm_stats = shared_memory.SharedMemory(
                create=True,
                size=n_workers * (cfg.epochs * 2 + _ACCOUNT_SLOTS) * 8,
            )
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
            account = np.ndarray(
                (n_workers, _ACCOUNT_SLOTS), dtype=np.float64,
                buffer=shm_stats.buf, offset=stats.nbytes,
            )
            stats[:] = 0.0
            account[:] = 0.0

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
                        account=account[wid],
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
            accounts = np.array(account)
        finally:
            for feed in feeds:
                feed.close()
            if server is not None:  # failure path: don't leak the process
                try:
                    server.join(timeout=5.0)
                except RuntimeError as exc:  # pragma: no cover - abnormal
                    logger.warning("parameter server cleanup: %s", exc)
            for shm in (shm_params, shm_stats):
                if shm is not None:
                    shm.close()
                    shm.unlink()

        phase_seconds = accounts[:, : len(PHASES)]
        wall, hot_rows = accounts[:, len(PHASES) :].T
        # Every pair's step has 1 positive and ``negatives`` output rows.
        out_rows = report[:, :, 1].sum(axis=1) * (1 + cfg.negatives)
        self.worker_reports = [
            WorkerReport(
                worker_id=wid,
                pairs=int(report[wid, :, 1].sum()),
                losses=[float(x) for x in report[wid, :, 0]],
                phase_seconds=dict(zip(PHASES, phase_seconds[wid].tolist())),
                seconds=float(wall[wid]),
                hot_share=float(hot_rows[wid] / max(out_rows[wid], 1.0)),
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
            "%s fit: %d workers (%s feed%s), %d pairs, %d hot rows"
            " (%.1f%% of output rows), final loss %.4f; worker seconds %s",
            "tns" if self.hot_sync_used == "server" else "hogwild",
            n_workers,
            self.feed_mode,
            ", pinned" if self.pinned else "",
            self.pairs_trained,
            self.n_hot,
            100 * hot_rows.sum() / max(out_rows.sum(), 1.0),
            self.loss_history[-1] if self.loss_history else float("nan"),
            " ".join(
                f"{name} {sec:.2f}"
                for name, sec in zip(PHASES, phase_seconds.sum(axis=0))
            ),
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
    ``cfg.batch_size`` (one SGD step each).  A step's output tokens
    (contexts, then negatives) are gathered once; a :class:`HotRowSplit`
    of their translated rows serves the hot ones from a private replica
    reconciled through ``task.sync`` and splits the output gradients
    between replica and shared matrix by position.  Without a replica
    (``task.sync is None``) nothing is translated and every step shares
    :data:`_ALL_COLD`.  Everything else is read/written lock-free in
    shared memory.  The seconds of each phase (:data:`PHASES`), the wall
    time and the count of output rows served from the replica are
    accumulated per batch or block and written to ``task.account`` at
    the end.
    """
    clock = time.perf_counter
    started = clock()
    _pin_to_cpu(task.pin_index)
    spent = dict.fromkeys(PHASES, 0.0)
    rng = ensure_rng(task.neg_seed)
    dim = cfg.dim
    negs = cfg.negatives
    batch = cfg.batch_size
    block = max(batch, _BLOCK_PAIRS)
    scatter = cfg.scatter
    sync = task.sync
    hot_rows = 0
    replica = None  # no hot rows: every slot translates to -1
    if sync is not None:
        tick = clock()
        base = np.array(sync.pull(), dtype=w_out.dtype, copy=True)
        replica = base.copy()
        delta = np.empty_like(base)
        spent["sync"] += clock() - tick

    def merge_replica() -> None:
        tick = clock()
        np.subtract(replica, base, out=delta)
        merged = sync.merge(delta)
        base[:] = merged
        replica[:] = merged
        spent["sync"] += clock() - tick

    seen = 0
    since_sync = 0
    epochs = iter(task.feed.epochs())
    for epoch in itertools.count():
        tick = clock()
        pairs = next(epochs, None)
        spent["feed"] += clock() - tick
        if pairs is None:
            break
        epoch_centers, epoch_contexts = pairs
        epoch_loss = 0.0
        epoch_pairs = 0
        n_pairs = len(epoch_centers)
        for bstart in range(0, n_pairs, block):
            bend = min(bstart + block, n_pairs)
            blk_centers = epoch_centers[bstart:bend]
            blk_contexts = epoch_contexts[bstart:bend]
            nb = bend - bstart
            tick = clock()
            negatives = sampler.sample((nb, negs), rng)
            tock = clock()
            spent["sample"] += tock - tick
            if sync is not None:
                blk_hot_pos = hot_row[blk_contexts]
                blk_hot_neg = hot_row[negatives.ravel()]
                spent["translate"] += clock() - tock
            for s in range(0, nb, batch):
                e = min(s + batch, nb)
                n_mb = e - s
                centers = blk_centers[s:e]
                lr = lr_at(cfg, seen, task.total_pairs)
                t1 = clock()
                split = _ALL_COLD
                if sync is not None:
                    split = HotRowSplit(
                        np.concatenate(
                            (blk_hot_pos[s:e], blk_hot_neg[s * negs : e * negs])
                        )
                    )
                    t0, t1 = t1, clock()
                    spent["translate"] += t1 - t0
                # Positives then negatives: the layout of the gradient
                # block, so one gather and one combined scatter serve both.
                out_tokens = np.concatenate(
                    (blk_contexts[s:e], negatives[s:e].reshape(-1))
                )
                c_out = split.gather(w_out, replica, out_tokens)
                c_in = np.take(w_in, centers, axis=0)
                t2 = clock()
                grad_w, out_grads, loss = sgns_gradients(
                    c_in, c_out[:n_mb], c_out[n_mb:].reshape(n_mb, negs, dim)
                )
                t3 = clock()
                scatter(w_in, centers, grad_w, lr)
                split.scatter(scatter, w_out, replica, out_tokens, out_grads, lr)
                spent["gather"] += t2 - t1
                spent["step"] += t3 - t2
                spent["scatter"] += clock() - t3
                hot_rows += len(split.hot)

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
    task.account[: len(PHASES)] = [spent[name] for name in PHASES]
    task.account[len(PHASES) :] = (clock() - started, hot_rows)
