"""Vocabulary partitioning for the distributed engine (Sec. III-C, step 3-4).

The paper's pipeline assigns *items* to workers via HBGP, assigns SI and
user-type tokens to random workers, and designates a shared hot set
``Q`` of tokens whose frequency exceeds a threshold (in practice the most
common SI values: gender, age, colour, ...).  ``Q``'s vectors are
replicated on every worker and periodically averaged (ATNS).

:func:`build_token_partition` translates those rules from dataset/item
space into the encoded vocabulary space of an
:class:`~repro.core.enrichment.EnrichedCorpus`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.enrichment import EnrichedCorpus
from repro.core.vocab import TokenKind
from repro.utils import ensure_rng, get_logger, require, require_positive

logger = get_logger("distributed.partition")


@dataclass
class TokenPartition:
    """Assignment of every vocabulary token to a worker, plus the hot set.

    Attributes
    ----------
    owner:
        Worker id per vocabulary token id.
    shared:
        Boolean mask: tokens in the replicated hot set ``Q``.
    n_workers:
        Number of workers.
    """

    owner: np.ndarray
    shared: np.ndarray
    n_workers: int

    def __post_init__(self) -> None:
        require(len(self.owner) == len(self.shared), "owner/shared must align")
        require_positive(self.n_workers, "n_workers")
        if len(self.owner):
            require(
                int(self.owner.max()) < self.n_workers,
                "owner ids must be < n_workers",
            )
            require(int(self.owner.min()) >= 0, "owner ids must be >= 0")

    @property
    def n_shared(self) -> int:
        return int(self.shared.sum())

    def tokens_of_worker(self, worker_id: int) -> np.ndarray:
        """Token ids owned by ``worker_id`` (hot tokens stay with their
        nominal owner; replication is handled by the engine)."""
        return np.flatnonzero(self.owner == worker_id).astype(np.int64)


def build_token_partition(
    corpus: EnrichedCorpus,
    n_workers: int,
    item_partition: np.ndarray | None = None,
    hot_threshold: float = 0.001,
    max_hot: int | None = None,
    seed: "int | np.random.Generator | None" = 0,
) -> TokenPartition:
    """Assign vocabulary tokens to ``n_workers`` workers.

    Parameters
    ----------
    corpus:
        The encoded corpus whose vocabulary is being partitioned.
    n_workers:
        Number of workers.
    item_partition:
        Optional item-id -> worker-id array (e.g. from
        :func:`repro.graph.hbgp.hbgp_partition`); items without an entry
        (or when the array is ``None``) are assigned randomly.
    hot_threshold:
        Tokens whose relative corpus frequency is at least this value
        join the shared hot set ``Q`` (the paper replicates the most
        common SI features).
    max_hot:
        Optional cap on ``|Q|`` (the highest-frequency tokens win).
    seed:
        Randomness for the random assignments.
    """
    require_positive(n_workers, "n_workers")
    require_positive(hot_threshold, "hot_threshold", strict=False)
    rng = ensure_rng(seed)
    vocab = corpus.vocab
    n_tokens = len(vocab)
    counts = vocab.counts.astype(np.float64)
    total = counts.sum()

    owner = rng.integers(0, n_workers, size=n_tokens).astype(np.int64)
    if item_partition is not None:
        item_partition = np.asarray(item_partition, dtype=np.int64)
        item_vids, item_ids = vocab.ids_of_kind(TokenKind.ITEM), vocab.item_ids()
        known = (item_ids >= 0) & (item_ids < len(item_partition))
        item_vids, parts = item_vids[known], item_partition[item_ids[known]]
        owner[item_vids[parts >= 0]] = parts[parts >= 0] % n_workers

    shared = np.zeros(n_tokens, dtype=bool)
    if total > 0:
        shared = (counts / total) >= hot_threshold
    if max_hot is not None and int(shared.sum()) > max_hot:
        hot_ids = np.flatnonzero(shared)
        keep = hot_ids[np.argsort(-counts[hot_ids], kind="stable")[:max_hot]]
        shared = np.zeros(n_tokens, dtype=bool)
        shared[keep] = True

    partition = TokenPartition(owner=owner, shared=shared, n_workers=n_workers)
    logger.info(
        "token partition: %d tokens over %d workers, hot set |Q| = %d",
        n_tokens,
        n_workers,
        partition.n_shared,
    )
    return partition
