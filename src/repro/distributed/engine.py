"""The distributed SGNS engine: TNS (Alg. 1) + ATNS (Sec. III-A).

Faithful simulation strategy: the *algorithm* runs for real —

- input vectors live with the owner of the center token; output vectors
  with the owner of the context token (TNS);
- every worker draws negatives from its **local** noise distribution
  (its own tokens plus the shared hot set), not the global one;
- the hottest tokens ``Q`` are **replicated**: each worker updates its
  own copy of their output vectors, and the copies are averaged every
  ``sync_interval`` batches (ATNS's caching/averaging strategy);
- the update arithmetic is byte-for-byte the same as the single-machine
  trainer (shared :func:`repro.core.sgns.sgns_gradients` /
  ``scatter_update`` / ``lr_at``), so any quality difference against
  single-machine SGNS is due to the *algorithmic* approximations
  (local noise, replica staleness), exactly as on a real cluster —

while the cluster's *time* is accounted by the
:class:`~repro.distributed.cluster.CostModel`: compute on the worker
running the TNS function, input-vector transfer + gradient return for
remote pairs, batched RPC latency, and replica-sync broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.enrichment import EnrichedCorpus
from repro.core.sampling import AliasSampler, build_noise_distribution
from repro.core.sgns import (
    HotRowSplit,
    SGNSConfig,
    keep_probabilities_for,
    lr_at,
    pair_generator,
    sgns_gradients,
)
from repro.distributed.cluster import ClusterStats, CostModel, WorkerClock
from repro.distributed.partition import TokenPartition, build_token_partition
from repro.utils import ensure_rng, get_logger, require, require_positive, spawn_rngs

logger = get_logger("distributed.engine")


@dataclass
class DistributedResult:
    """Output of a distributed training run."""

    w_in: np.ndarray
    w_out: np.ndarray
    stats: ClusterStats
    loss_history: list[float]


class _Worker:
    """One simulated worker: local noise, hot-set replicas, a clock."""

    def __init__(
        self,
        worker_id: int,
        local_tokens: np.ndarray,
        counts: np.ndarray,
        noise_alpha: float,
        n_shared: int,
        dim: int,
        rng: np.random.Generator,
    ) -> None:
        self.worker_id = worker_id
        self.local_tokens = local_tokens
        self.clock = WorkerClock(worker_id)
        self.rng = rng
        weights = counts[local_tokens].astype(np.float64)
        if weights.sum() <= 0:
            # A worker may own only zero-count tokens; fall back to uniform.
            weights = np.ones(len(local_tokens))
        self.sampler = AliasSampler(build_noise_distribution(weights, noise_alpha))
        # Per-worker replica of the hot set's output vectors (ATNS).
        self.hot_replica = np.zeros((n_shared, dim))

    def sample_negatives(self, shape: tuple[int, ...]) -> np.ndarray:
        """Draw negative token ids from the local noise distribution."""
        positions = self.sampler.sample(shape, self.rng)
        return self.local_tokens[positions]


def train_distributed(
    corpus: EnrichedCorpus,
    config: SGNSConfig | None = None,
    n_workers: int = 4,
    partition: TokenPartition | None = None,
    item_partition: np.ndarray | None = None,
    cost_model: CostModel | None = None,
    sync_interval: int = 5,
    hot_threshold: float = 0.001,
    keep_probabilities: np.ndarray | None = None,
) -> DistributedResult:
    """Train SGNS over ``corpus`` on a simulated ``n_workers`` cluster.

    Parameters
    ----------
    corpus:
        The encoded (optionally SI-enhanced) corpus.
    config:
        SGNS hyper-parameters (the same object the local trainer takes).
    n_workers:
        Number of simulated workers.
    partition:
        Pre-built token partition; built from ``item_partition`` /
        ``hot_threshold`` when omitted.
    item_partition:
        Optional item-id -> worker-id array (HBGP output) used when
        ``partition`` is omitted.
    cost_model:
        Cluster time constants (defaults are the paper-calibrated ones).
    sync_interval:
        Hot-set replicas are merged (delta accumulation) every this many
        batches.  Short intervals are required for convergence: deltas
        are computed against the last synced base, so long intervals act
        like heavily stale asynchronous SGD on the hottest tokens.
    hot_threshold:
        Relative-frequency threshold for the shared hot set ``Q``.
    keep_probabilities:
        Optional per-token subsampling override (e.g. the kind-aware
        probabilities from :func:`repro.core.sisg.kind_aware_keep`).

    Returns
    -------
    DistributedResult
        Final matrices (hot rows hold the averaged replicas), the
        cluster accounting, and per-epoch mean losses.
    """
    config = config or SGNSConfig()
    config.validate()
    require_positive(n_workers, "n_workers")
    require_positive(sync_interval, "sync_interval")
    cost_model = cost_model or CostModel()
    cost_model.validate()

    vocab_size = len(corpus.vocab)
    require(vocab_size > 0, "corpus vocabulary is empty")
    counts = corpus.vocab.counts

    if partition is None:
        partition = build_token_partition(
            corpus,
            n_workers,
            item_partition=item_partition,
            hot_threshold=hot_threshold,
            seed=config.seed,
        )
    require(
        partition.n_workers == n_workers,
        f"partition was built for {partition.n_workers} workers, engine"
        f" has {n_workers}",
    )

    dim = config.dim
    master_rng = ensure_rng(config.seed)
    worker_rngs = spawn_rngs(master_rng, n_workers)

    # Shared hot set bookkeeping: global token id <-> replica row.
    shared_ids = np.flatnonzero(partition.shared).astype(np.int64)
    hot_row = np.full(vocab_size, -1, dtype=np.int64)
    hot_row[shared_ids] = np.arange(len(shared_ids))

    workers = []
    for wid in range(n_workers):
        owned = partition.tokens_of_worker(wid)
        local = np.unique(np.concatenate([owned, shared_ids])) if len(
            shared_ids
        ) else owned
        if len(local) == 0:
            local = np.asarray([0], dtype=np.int64)
        workers.append(
            _Worker(
                wid, local, counts, config.noise_alpha, len(shared_ids), dim,
                worker_rngs[wid],
            )
        )

    # Global parameter matrices.  w_out rows of hot tokens are *not* read
    # directly during training (replicas are); they receive the averaged
    # value at each sync.
    w_in = (master_rng.random((vocab_size, dim)) - 0.5) / dim
    w_out = np.zeros((vocab_size, dim))

    keep = keep_probabilities_for(config, counts, keep_probabilities)
    generator = pair_generator(corpus.sequences, config, keep, master_rng)
    total_pairs = generator.count_pairs() * config.epochs

    owner = partition.owner
    is_shared = partition.shared
    stats_pairs = 0
    stats_remote = 0
    stats_floats = 0
    stats_rpc = 0
    sync_rounds = 0
    sync_seconds = 0.0
    loss_history: list[float] = []
    seen = 0
    batch_counter = 0

    # Base value of each hot row at the last sync.  Synchronization uses
    # delta accumulation, not plain averaging: each worker only processes
    # the pairs whose center it owns (1/w of a hot token's updates), so
    # averaging replicas would train hot tokens w times slower than
    # sequential SGD.  Summing per-worker deltas since the last sync
    # reproduces the sequential update volume (async-SGD semantics).
    hot_base = np.zeros((len(shared_ids), dim))

    def sync_replicas() -> None:
        nonlocal sync_rounds, sync_seconds
        if len(shared_ids) == 0:
            return
        merged = hot_base + sum(w.hot_replica - hot_base for w in workers)
        hot_base[:] = merged
        for worker in workers:
            worker.hot_replica[:] = merged
        w_out[shared_ids] = merged
        sync_rounds += 1
        sync_seconds += cost_model.sync_seconds(len(shared_ids), dim, n_workers)

    for epoch in range(config.epochs):
        epoch_loss = 0.0
        epoch_pairs = 0
        for centers, contexts in generator.batches(config.batch_size):
            lr = lr_at(config, seen, total_pairs)

            # A pair is processed by the owner of its *context* (TNS),
            # unless the context is replicated (hot set Q) — then the
            # center's owner handles it locally against its replica,
            # which is precisely how ATNS removes hot-token traffic.
            center_owner = owner[centers]
            ctx_owner = np.where(
                is_shared[contexts], center_owner, owner[contexts]
            )
            remote = ctx_owner != center_owner

            batch_loss = 0.0
            # Workers that touched any remote exchange this batch round;
            # exchanges with different peers proceed concurrently
            # (production engines batch and pipeline RPCs), so each
            # participant pays the RPC latency once per round.
            remote_participants: set[int] = set()
            for wid in np.unique(ctx_owner):
                worker = workers[wid]
                sel = ctx_owner == wid
                b_centers = centers[sel]
                b_contexts = contexts[sel]
                n_sub = len(b_centers)

                negatives = worker.sample_negatives(
                    (n_sub, config.negatives)
                ).ravel()
                # Output rows of Q are read from and written to the
                # worker's replica, every other row the global matrix.
                replica = worker.hot_replica
                pos_split = HotRowSplit(hot_row[b_contexts])
                neg_split = HotRowSplit(hot_row[negatives])
                grad_w, grad_out, loss = sgns_gradients(
                    w_in[b_centers],
                    pos_split.gather(w_out, replica, b_contexts),
                    neg_split.gather(w_out, replica, negatives).reshape(
                        n_sub, config.negatives, dim
                    ),
                )
                # Positives and negatives are scattered (and clipped)
                # separately here, unlike the local trainer's one
                # combined scatter; Fig. 7 / Table III were measured so.
                pos_split.scatter(
                    config.scatter, w_out, replica, b_contexts,
                    grad_out[:n_sub], lr,
                )
                neg_split.scatter(
                    config.scatter, w_out, replica, negatives,
                    grad_out[n_sub:], lr,
                )
                # The input-vector gradient is returned to (and applied
                # by) the owner of the center, per Alg. 1 line 8.
                config.scatter(w_in, b_centers, grad_w, lr)
                batch_loss += loss * n_sub

                # --- time accounting ---------------------------------
                worker.clock.add_compute(
                    cost_model.compute_seconds(n_sub, config.negatives, dim)
                )
                sub_remote = remote[sel]
                n_remote = int(sub_remote.sum())
                if n_remote:
                    floats = 2 * n_remote * dim
                    stats_floats += floats
                    worker.clock.add_communication(
                        cost_model.transfer_seconds(floats)
                    )
                    remote_participants.add(int(wid))
                    senders, send_counts = np.unique(
                        center_owner[sel][sub_remote], return_counts=True
                    )
                    for sender, cnt in zip(senders, send_counts):
                        workers[sender].clock.add_communication(
                            cost_model.transfer_seconds(2 * int(cnt) * dim)
                        )
                        remote_participants.add(int(sender))
                        stats_rpc += 1

            for wid in remote_participants:
                workers[wid].clock.add_communication(cost_model.rpc_latency)

            # Center owners apply the returned input gradients.
            apply_owner, apply_counts = np.unique(center_owner, return_counts=True)
            for wid, cnt in zip(apply_owner, apply_counts):
                workers[wid].clock.add_compute(
                    cost_model.apply_seconds(int(cnt), dim)
                )

            batch = len(centers)
            seen += batch
            stats_pairs += batch
            stats_remote += int(remote.sum())
            epoch_loss += batch_loss
            epoch_pairs += batch
            batch_counter += 1
            if batch_counter % sync_interval == 0:
                sync_replicas()
        loss_history.append(epoch_loss / max(epoch_pairs, 1))
        logger.info(
            "distributed epoch %d/%d: %d pairs, mean loss %.4f",
            epoch + 1,
            config.epochs,
            epoch_pairs,
            loss_history[-1],
        )

    sync_replicas()
    stats = ClusterStats.from_clocks(
        [w.clock for w in workers],
        pairs_processed=stats_pairs,
        pairs_remote=stats_remote,
        floats_transferred=stats_floats,
        rpc_exchanges=stats_rpc,
        sync_rounds=sync_rounds,
        sync_seconds=sync_seconds,
    )
    logger.info(
        "distributed run: %.2f simulated s, remote fraction %.3f,"
        " imbalance %.2f",
        stats.simulated_seconds,
        stats.remote_fraction,
        stats.compute_imbalance,
    )
    return DistributedResult(
        w_in=w_in, w_out=w_out, stats=stats, loss_history=loss_history
    )
