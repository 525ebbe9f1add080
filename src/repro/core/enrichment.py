"""SI-enhanced sequence construction (Eq. 4 of the paper).

Given a behavior sequence ``(v_1, ..., v_p)`` of user ``u``, the enriched
sequence is::

    v_1, SI^1_1, ..., SI^1_n, ..., v_p, SI^p_1, ..., SI^p_n, UT_u

i.e. every item is immediately followed by its ``n`` SI tokens, and the
user-type token is appended at the end.  Tokens are rendered as
``[FeatureName]_[FeatureValue]`` strings exactly as in Table I of the
paper (e.g. ``leaf_category_1234``) and user types as
``UT_[gender]_[age]_[tags]`` (Section II-B).

The enriched corpus is stored *encoded*: a shared :class:`Vocabulary`
plus one ``int64`` array per sequence.  Per-item token blocks are
precomputed once, so enriching a large corpus is a concatenation of
cached blocks rather than string work per click.
"""

from __future__ import annotations

import numpy as np

from repro.core.vocab import TokenKind, Vocabulary
from repro.data.schema import (
    AGE_BUCKETS,
    GENDERS,
    ITEM_SI_FEATURES,
    PURCHASE_POWERS,
    USER_TAGS,
    BehaviorDataset,
    UserMeta,
)
from repro.utils import get_logger

logger = get_logger("core.enrichment")


def item_token(item_id: int) -> str:
    """Render the token string for an item."""
    return f"item_{item_id}"


def si_token(feature: str, value: int) -> str:
    """Render the ``[FeatureName]_[FeatureValue]`` token for an SI instance."""
    return f"{feature}_{value}"


def user_type_token(user: UserMeta) -> str:
    """Render the ``UT_[gender]_[age]_[tags]`` token for a user's type.

    Purchase power participates in the type (it is part of the paper's
    fine-grained categorization) and tags are appended in index order,
    e.g. ``UT_F_25-30_high_married_haschildren``.
    """
    parts = [
        "UT",
        GENDERS[user.gender_idx],
        AGE_BUCKETS[user.age_idx],
        PURCHASE_POWERS[user.power_idx],
    ]
    parts.extend(USER_TAGS[t] for t in user.tag_indices)
    return "_".join(parts)


def user_type_key(user: UserMeta) -> tuple[int, int, int, tuple[int, ...]]:
    """The hashable identity of a user's type (payload for UT tokens)."""
    return (user.gender_idx, user.age_idx, user.power_idx, user.tag_indices)


class EnrichedCorpus:
    """An encoded, optionally SI-enhanced training corpus.

    Attributes
    ----------
    vocab:
        Shared vocabulary with frequencies counted over the corpus.
    sequences:
        One ``int64`` array of token ids per behavior sequence.
    with_si, with_user_types:
        The enrichment flags this corpus was built with.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        sequences: list[np.ndarray],
        with_si: bool,
        with_user_types: bool,
    ) -> None:
        self.vocab = vocab
        self.sequences = sequences
        self.with_si = with_si
        self.with_user_types = with_user_types

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)

    @property
    def n_tokens(self) -> int:
        """Total token occurrences across all sequences."""
        return int(sum(len(s) for s in self.sequences))

    def item_vocab_ids(self) -> np.ndarray:
        """Vocabulary ids of all item tokens."""
        return self.vocab.ids_of_kind(TokenKind.ITEM)


def build_enriched_corpus(
    dataset: BehaviorDataset,
    with_si: bool = True,
    with_user_types: bool = True,
    vocab: Vocabulary | None = None,
) -> EnrichedCorpus:
    """Encode ``dataset`` into an :class:`EnrichedCorpus`.

    Parameters
    ----------
    dataset:
        The behavior dataset to encode.
    with_si:
        Inject the item SI tokens after every item (the "F" in SISG-F).
    with_user_types:
        Append the user-type token to every sequence (the "U").
    vocab:
        Optional pre-existing vocabulary to extend (used when encoding a
        second corpus — e.g. a later day of traffic — in the same id
        space).  Frequencies accumulate into it.
    """
    vocab = Vocabulary() if vocab is None else vocab

    # Pre-encode the token block (item followed by its SI tokens) per item.
    blocks: list[np.ndarray] = []
    for item in dataset.items:
        ids = [vocab.add(item_token(item.item_id), TokenKind.ITEM, item.item_id)]
        if with_si:
            for feature in ITEM_SI_FEATURES:
                value = item.si_values[feature]
                ids.append(
                    vocab.add(
                        si_token(feature, value), TokenKind.SI, (feature, value)
                    )
                )
        blocks.append(np.asarray(ids, dtype=np.int64))

    # Pre-encode user-type tokens per user.
    user_type_ids: list[int] = []
    if with_user_types:
        for user in dataset.users:
            user_type_ids.append(
                vocab.add(
                    user_type_token(user), TokenKind.USER_TYPE, user_type_key(user)
                )
            )

    sequences: list[np.ndarray] = []
    for session in dataset.sessions:
        parts = [blocks[item_id] for item_id in session.items]
        if with_user_types:
            parts.append(
                np.asarray([user_type_ids[session.user_id]], dtype=np.int64)
            )
        seq = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        sequences.append(seq)
    # Frequency accounting: one count per occurrence, in one pass.
    tokens = np.concatenate(sequences) if sequences else np.empty(0, dtype=np.int64)
    vocab.add_counts(np.bincount(tokens, minlength=len(vocab)))

    logger.info(
        "enriched corpus: %d sequences, %d tokens, vocab %d (si=%s, ut=%s)",
        len(sequences),
        len(tokens),
        len(vocab),
        with_si,
        with_user_types,
    )
    return EnrichedCorpus(vocab, sequences, with_si, with_user_types)
