"""Warm-start (incremental) retraining for daily embedding refreshes.

The paper's deployment requirement is that *all* embeddings are
recomputed "on a daily basis"; production systems soften the cost by
warm-starting each night's run from the previous model so embeddings
stay stable across days and new entities converge quickly.  This module
implements that recipe:

1. encode today's sessions **extending** yesterday's vocabulary (ids are
   stable; new items/SI values/user types get fresh ids);
2. carry over yesterday's vectors for known tokens; initialize new item
   tokens from their SI vectors (Eq. 6 — the cold-start recipe doubles
   as a warm-start initializer) and everything else as word2vec does;
3. continue SGNS training on today's corpus at a reduced learning rate.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.enrichment import build_enriched_corpus
from repro.core.model import EmbeddingModel
from repro.core.sgns import SGNSConfig, SGNSTrainer
from repro.core.vocab import TokenKind
from repro.data.schema import ITEM_SI_FEATURES, BehaviorDataset
from repro.utils import ensure_rng, get_logger, require_in_range

logger = get_logger("core.incremental")


def incremental_update(
    previous: EmbeddingModel,
    new_dataset: BehaviorDataset,
    config: SGNSConfig | None = None,
    with_si: bool = True,
    with_user_types: bool = True,
    lr_decay: float = 0.5,
    seed: "int | np.random.Generator | None" = 0,
) -> EmbeddingModel:
    """Warm-start retraining of ``previous`` on ``new_dataset``.

    Parameters
    ----------
    previous:
        Yesterday's trained model.
    new_dataset:
        Today's behavior data (may contain brand-new items and users).
    config:
        SGNS settings for the continuation run.
    with_si, with_user_types:
        Enrichment flags; should match how ``previous`` was trained so
        the joint space keeps its semantics.
    lr_decay:
        Multiplier on the learning rate for the continuation (stability
        of already-trained vectors vs plasticity for new ones).
    seed:
        Initialization randomness for genuinely new tokens.

    Returns
    -------
    EmbeddingModel
        A new model over the *extended* vocabulary; token ids of
        yesterday's vocabulary are preserved.
    """
    config = config or SGNSConfig()
    config.validate()
    require_in_range(lr_decay, "lr_decay", 0.0, 1.0, inclusive=False)
    rng = ensure_rng(seed)

    vocab = previous.vocab.copy()  # the previous model stays immutable
    old_size = len(vocab)
    corpus = build_enriched_corpus(
        new_dataset, with_si=with_si, with_user_types=with_user_types,
        vocab=vocab,
    )
    new_size = len(vocab)
    dim = previous.dim

    w_in = np.empty((new_size, dim))
    w_out = np.zeros((new_size, dim))
    w_in[:old_size] = previous.w_in
    w_out[:old_size] = previous.w_out
    w_in[old_size:] = (rng.random((new_size - old_size, dim)) - 0.5) / dim

    # New items start from the sum of their (already trained) SI vectors —
    # Eq. 6 as a warm-start initializer — so they enter the space near
    # their semantic neighbourhood instead of at random.
    si_initialized = 0
    if with_si:
        for token_id in range(old_size, new_size):
            if vocab.kind_of(token_id) is not TokenKind.ITEM:
                continue
            item_id = vocab.item_id_of(token_id)
            si_values = new_dataset.items[item_id].si_values
            vector = np.zeros(dim)
            found = 0
            for feature in ITEM_SI_FEATURES:
                si_tid = vocab.get_id(f"{feature}_{si_values[feature]}")
                if si_tid is not None and si_tid < old_size:
                    vector += previous.w_in[si_tid]
                    found += 1
            if found:
                # Eq. 6 is a *sum* over SI vectors (matching
                # `infer_cold_item_vector`), not a mean — the warm-start
                # initializer must land where cold-start retrieval would.
                w_in[token_id] = vector
                si_initialized += 1

    continuation = replace(
        config, learning_rate=config.learning_rate * lr_decay
    )
    trainer = SGNSTrainer(new_size, continuation)
    trainer.w_in = w_in
    trainer.w_out = w_out
    trainer.fit(corpus.sequences, vocab.counts)

    logger.info(
        "incremental update: vocab %d -> %d (%d new items SI-initialized)",
        old_size,
        new_size,
        si_initialized,
    )
    return EmbeddingModel(vocab, trainer.w_in, trainer.w_out)


def embedding_drift(
    previous: EmbeddingModel, updated: EmbeddingModel, kind: TokenKind | None = None
) -> float:
    """Mean cosine distance between yesterday's and today's shared vectors.

    A small drift means downstream candidate tables stay stable day over
    day — the operational reason to warm start instead of retraining
    from scratch.  The refresh daemon's drift gate calls this once per
    nightly cycle over the full vocabulary, so the shared-token matching
    is vectorized (sort + binary search) rather than a per-token Python
    loop.

    Tokens whose vector is zero in either model carry no direction and
    are excluded from the mean; with no usable pair at all (disjoint
    vocabularies, all-zero rows) the drift is defined as 0.0.
    """
    old_tokens = np.asarray(list(previous.vocab.tokens()), dtype=object)
    old_ids = np.arange(len(old_tokens), dtype=np.int64)
    if kind is not None:
        old_ids = previous.vocab.ids_of_kind(kind)
        old_tokens = old_tokens[old_ids]
    if not len(old_ids):
        return 0.0

    new_tokens = np.asarray(list(updated.vocab.tokens()), dtype=object)
    if not len(new_tokens):
        return 0.0
    order = np.argsort(new_tokens)
    ranked = new_tokens[order]
    pos = np.searchsorted(ranked, old_tokens)
    pos_clipped = np.minimum(pos, len(ranked) - 1)
    found = ranked[pos_clipped] == old_tokens
    if not found.any():
        return 0.0
    old_rows = previous.w_in[old_ids[found]]
    new_rows = updated.w_in[order[pos_clipped[found]]]

    old_norm = np.linalg.norm(old_rows, axis=1)
    new_norm = np.linalg.norm(new_rows, axis=1)
    denom = old_norm * new_norm
    valid = denom > 0
    if not valid.any():
        return 0.0
    cosine = np.einsum("bd,bd->b", old_rows[valid], new_rows[valid]) / denom[valid]
    return float(np.mean(1.0 - cosine))
