"""Warm-start (incremental) retraining for daily embedding refreshes.

The paper's deployment requirement is that *all* embeddings are
recomputed "on a daily basis"; production systems soften the cost by
warm-starting each night's run from the previous model so embeddings
stay stable across days and new entities converge quickly.  This module
implements that recipe:

1. encode today's sessions **extending** yesterday's vocabulary (ids are
   stable; new items/SI values/user types get fresh ids);
2. carry over yesterday's vectors for known tokens; initialize new item
   tokens from their SI vectors (Eq. 6 through
   :func:`~repro.core.coldstart.infer_cold_item_vectors` — the cold-start
   recipe doubles as a warm-start initializer) and everything else as
   word2vec does;
3. continue SGNS training on today's corpus at a reduced learning rate,
   in the config's ``dtype``: a float32 ``SGNSConfig`` warm-starts on
   float32 matrices, as the day-0 fit does.  The returned
   :class:`~repro.core.model.EmbeddingModel` holds float64 either way.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.coldstart import infer_cold_item_vectors
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
        SGNS settings for the continuation run; its ``dtype`` is the
        precision the continuation trains in.
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
        yesterday's vocabulary are preserved, and so is its similarity.
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

    # The continuation trains in the configured precision: yesterday's
    # (float64) rows and today's initial rows are cast on the way in.
    dtype = config.param_dtype
    w_in = np.empty((new_size, dim), dtype=dtype)
    w_out = np.zeros((new_size, dim), dtype=dtype)
    w_in[:old_size] = previous.w_in
    w_out[:old_size] = previous.w_out
    w_in[old_size:] = (rng.random((new_size - old_size, dim)) - 0.5) / dim

    # New items start where cold-start retrieval already places them:
    # Eq. 6 over yesterday's SI vectors, summed over the features the
    # corpus injects.  An item none of whose SI yesterday's model knows
    # keeps its random row.
    si_initialized = 0
    if with_si:
        token_ids = vocab.ids_of_kind(TokenKind.ITEM)
        new = token_ids >= old_size
        si_values = [new_dataset.item_si(int(i)) for i in vocab.item_ids()[new]]
        vectors, known = infer_cold_item_vectors(
            previous, [{f: si[f] for f in ITEM_SI_FEATURES} for si in si_values]
        )
        w_in[token_ids[new][known]] = vectors[known]
        si_initialized = int(known.sum())

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
    return EmbeddingModel(vocab, trainer.w_in, trainer.w_out, previous.similarity)


def embedding_drift(
    previous: EmbeddingModel, updated: EmbeddingModel, kind: TokenKind | None = None
) -> float:
    """Mean cosine distance between yesterday's and today's shared vectors.

    A small drift means downstream candidate tables stay stable day over
    day — the operational reason to warm start instead of retraining
    from scratch.  The refresh daemon's drift gate calls this once per
    nightly cycle over the full vocabulary and the stream applier once
    per window, so the shared tokens are matched with one dictionary
    lookup per old token, in old-id order.

    Tokens whose vector is zero in either model carry no direction and
    are excluded from the mean; with no usable pair at all (disjoint
    vocabularies, all-zero rows) the drift is defined as 0.0.
    """
    if kind is None:
        old_ids = range(len(previous.vocab))
    else:
        old_ids = previous.vocab.ids_of_kind(kind).tolist()
    tokens = list(previous.vocab.tokens())
    get_id = updated.vocab.get_id
    shared = [
        (old, new) for old in old_ids if (new := get_id(tokens[old])) is not None
    ]
    if not shared:
        return 0.0
    old_match, new_match = np.array(shared, dtype=np.int64).T
    old_rows = previous.w_in[old_match]
    new_rows = updated.w_in[new_match]

    old_norm = np.linalg.norm(old_rows, axis=1)
    new_norm = np.linalg.norm(new_rows, axis=1)
    denom = old_norm * new_norm
    valid = denom > 0
    if not valid.any():
        return 0.0
    cosine = np.einsum("bd,bd->b", old_rows[valid], new_rows[valid]) / denom[valid]
    return float(np.mean(1.0 - cosine))
