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
plus one ``int64`` array per sequence.  Token blocks are built once per
clicked item and gathered per click, so enriching a large corpus is an
array gather rather than string work per click; extending a vocabulary
registers only the tokens it lacks.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from repro.core.vocab import TokenKind, Vocabulary
from repro.data.schema import (
    AGE_BUCKETS,
    GENDERS,
    ITEM_SI_FEATURES,
    PURCHASE_POWERS,
    USER_TAGS,
    BehaviorDataset,
    ItemMeta,
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


_si_values = operator.itemgetter(*ITEM_SI_FEATURES)


def _item_blocks(
    vocab: Vocabulary, items: list[ItemMeta], with_si: bool, clicked: np.ndarray
) -> np.ndarray:
    """Register the tokens of ``items``; the token blocks of ``clicked``.

    A full pass registers item after item, each followed by its SI
    tokens, so a new token's id is fixed by the first item that carries
    it.  Only the items holding a token ``vocab`` does not know can add
    one: items without an item token, and the first carrier of each
    unknown SI value (an item known to a vocabulary built without SI
    still registers its SI tokens).  Walking just those in dataset order
    gives every new token the id the full pass would (``items[i]`` is
    item ``i``, the dataset's convention).  SI ids are looked up once
    per distinct value, so a clicked item's block costs one string: its
    item token.
    """
    n = len(items)
    walk = np.ones(n, dtype=bool)
    known = vocab.item_ids()
    walk[known[known < n]] = False
    columns = []
    if with_si:
        values = np.fromiter(
            itertools.chain.from_iterable(_si_values(item.si_values) for item in items),
            np.int64, n * len(ITEM_SI_FEATURES),
        ).reshape(n, len(ITEM_SI_FEATURES))
        for feature, column in zip(ITEM_SI_FEATURES, values.T):
            distinct, first, inverse = np.unique(
                column, return_index=True, return_inverse=True
            )
            tokens = [si_token(feature, v) for v in distinct.tolist()]
            walk[first[[token not in vocab for token in tokens]]] = True
            columns.append((tokens, inverse))
    for i in np.flatnonzero(walk).tolist():
        item = items[i]
        vocab.add(item_token(item.item_id), TokenKind.ITEM, item.item_id)
        if with_si:
            for feature, value in zip(ITEM_SI_FEATURES, _si_values(item.si_values)):
                vocab.add(si_token(feature, value), TokenKind.SI, (feature, value))

    blocks = np.empty((len(clicked), 1 + len(columns)), dtype=np.int64)
    blocks[:, 0] = [vocab.id_of(item_token(items[i].item_id)) for i in clicked.tolist()]
    for k, (tokens, inverse) in enumerate(columns, start=1):
        ids = np.asarray([vocab.id_of(token) for token in tokens], dtype=np.int64)
        blocks[:, k] = ids[inverse[clicked]]
    return blocks


def _register_user_types(vocab: Vocabulary, users: list[UserMeta]) -> list[int]:
    """Register the user-type tokens of ``users`` in order; each user's id.

    Types the vocabulary already holds are found by their key, without
    rendering the token string; ``vocab.add`` stays the authority for
    every other user (it is idempotent), so the ids are a full pass's.
    """
    by_key = {
        vocab.payload_of(i): i for i in vocab.ids_of_kind(TokenKind.USER_TYPE).tolist()
    }
    ids = []
    for user in users:
        key = user_type_key(user)
        token_id = by_key.get(key)
        if token_id is None:
            token_id = by_key[key] = vocab.add(
                user_type_token(user), TokenKind.USER_TYPE, key
            )
        ids.append(token_id)
    return ids


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

    Every item and user of the catalogue is registered, with the ids one
    pass over it in order would give.  Extending a vocabulary renders
    token strings only for the tokens it lacks, for each distinct SI
    value and for the clicked items; what still scans the catalogue is
    one read of each item's SI values and each user's type key.
    """
    vocab = Vocabulary() if vocab is None else vocab
    items, sessions = dataset.items, dataset.sessions
    lengths = np.fromiter((len(s.items) for s in sessions), np.int64, len(sessions))
    clicks = np.fromiter(
        (i for s in sessions for i in s.items), np.int64, int(lengths.sum())
    )
    present = np.zeros(len(items), dtype=bool)
    present[clicks] = True
    clicked = np.flatnonzero(present)
    blocks = _item_blocks(vocab, items, with_si, clicked)
    user_type_ids = _register_user_types(vocab, dataset.users) if with_user_types else []

    # One flat buffer: each session's blocks, then its user-type token.
    row_of = np.empty(len(items), dtype=np.int64)
    row_of[clicked] = np.arange(len(clicked))
    body = blocks[row_of[clicks]].ravel()
    ends = np.cumsum(lengths * blocks.shape[1] + (1 if with_user_types else 0))
    tokens = np.empty(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
    if with_user_types:
        tokens[ends - 1] = [user_type_ids[s.user_id] for s in sessions]
        is_body = np.ones(len(tokens), dtype=bool)
        is_body[ends - 1] = False
        tokens[is_body] = body
    else:
        tokens[:] = body
    # Copies, not views: views would pin the whole buffer for the
    # corpus's lifetime, which measurably raised the trainer's peak RSS.
    sequences = [seq.copy() for seq in np.split(tokens, ends[:-1])] if len(sessions) else []
    # Frequency accounting: one count per occurrence, in one pass.
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
