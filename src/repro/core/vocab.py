"""Token vocabulary for enriched behavior sequences.

Every element of an enriched sequence — item, SI instance, or user type —
is a *token*.  The vocabulary assigns dense integer ids, tracks corpus
frequencies (needed by the noise distribution and by subsampling), and
remembers each token's *kind* and *payload* so downstream components can,
for example, restrict retrieval to item tokens or recover the original
``item_id`` behind a vocabulary id.
"""

from __future__ import annotations

import enum
from typing import Any, Iterable

import numpy as np

from repro.utils import require


class TokenKind(enum.Enum):
    """What a vocabulary token denotes."""

    ITEM = "item"
    SI = "si"
    USER_TYPE = "user_type"


class Vocabulary:
    """A growable token dictionary with frequencies, kinds and payloads.

    Payload conventions:

    - ``ITEM`` tokens carry the integer ``item_id``.
    - ``SI`` tokens carry the ``(feature_name, feature_value)`` pair.
    - ``USER_TYPE`` tokens carry the user-type key tuple
      ``(gender_idx, age_idx, power_idx, tag_indices)``.
    """

    def __init__(self) -> None:
        self._token_to_id: dict[str, int] = {}
        self._tokens: list[str] = []
        self._kinds: list[TokenKind] = []
        self._payloads: list[Any] = []
        self._counts: list[int] = []
        # Append-only like the vocabulary itself, so always ascending and
        # never stale; `add` publishes an id here last.
        self._ids_by_kind: dict[TokenKind, list[int]] = {k: [] for k in TokenKind}
        self._user_type_keys: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def add(
        self, token: str, kind: TokenKind, payload: Any = None, count: int = 0
    ) -> int:
        """Register ``token`` (idempotent) and add ``count`` to its frequency.

        Returns the token's vocabulary id.  Re-adding an existing token with
        a different kind is an error — token strings must be unambiguous.
        """
        existing = self._token_to_id.get(token)
        if existing is not None:
            if self._kinds[existing] is not kind:
                raise ValueError(
                    f"token {token!r} already registered with kind"
                    f" {self._kinds[existing].value}, cannot re-register as"
                    f" {kind.value}"
                )
            self._counts[existing] += count
            return existing
        token_id = len(self._tokens)
        self._token_to_id[token] = token_id
        self._tokens.append(token)
        self._kinds.append(kind)
        self._payloads.append(payload)
        self._counts.append(count)
        self._ids_by_kind[kind].append(token_id)
        return token_id

    def id_of(self, token: str) -> int:
        """Return the id of ``token``; raises ``KeyError`` if unknown."""
        return self._token_to_id[token]

    def get_id(self, token: str) -> int | None:
        """Return the id of ``token`` or ``None`` if unknown."""
        return self._token_to_id.get(token)

    def token_of(self, token_id: int) -> str:
        """Return the string form of ``token_id``."""
        return self._tokens[token_id]

    def kind_of(self, token_id: int) -> TokenKind:
        """Return the kind of ``token_id``."""
        return self._kinds[token_id]

    def payload_of(self, token_id: int) -> Any:
        """Return the payload attached to ``token_id``."""
        return self._payloads[token_id]

    def count_of(self, token_id: int) -> int:
        """Return the corpus frequency of ``token_id``."""
        return self._counts[token_id]

    def add_count(self, token_id: int, count: int = 1) -> None:
        """Increment the frequency of an existing token."""
        self._counts[token_id] += count

    def add_counts(self, counts: np.ndarray) -> None:
        """Add ``counts[i]`` to the frequency of token ``i``, for every token."""
        counts = np.asarray(counts, dtype=np.int64)
        require(
            len(counts) == len(self._counts),
            f"counts has length {len(counts)}, vocabulary has"
            f" {len(self._counts)} tokens",
        )
        self._counts[:] = (np.asarray(self._counts, dtype=np.int64) + counts).tolist()

    @property
    def counts(self) -> np.ndarray:
        """Frequencies as an int64 array aligned with token ids."""
        return np.asarray(self._counts, dtype=np.int64)

    def ids_of_kind(self, kind: TokenKind) -> np.ndarray:
        """All token ids of the given kind, ascending."""
        return np.asarray(self._ids_by_kind[kind], dtype=np.int64)

    def item_ids(self) -> np.ndarray:
        """The ``item_id`` of each ITEM token, aligned with ``ids_of_kind(ITEM)``."""
        payloads = self._payloads
        return np.asarray(
            [payloads[i] for i in self._ids_by_kind[TokenKind.ITEM]], dtype=np.int64
        )

    def user_type_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, keys)`` of the USER_TYPE tokens, ascending by id.

        ``keys`` is the ``(n, 3)`` integer array of ``(gender_idx, age_idx,
        power_idx)``.  Derived once per number of user types (they are only
        ever appended) and published as one finished tuple, so concurrent
        first callers at worst both build it.  Both arrays are read-only.
        """
        ids = self._ids_by_kind[TokenKind.USER_TYPE]
        table = self._user_type_keys
        if table is None or len(table[0]) != len(ids):
            id_array = np.asarray(ids, dtype=np.int64)
            keys = np.asarray(
                [self._payloads[i][:3] for i in id_array.tolist()], dtype=np.int64
            ).reshape(-1, 3)
            id_array.flags.writeable = keys.flags.writeable = False
            table = self._user_type_keys = (id_array, keys)
        return table

    def item_id_of(self, token_id: int) -> int:
        """Recover the original ``item_id`` behind an ITEM token."""
        if self._kinds[token_id] is not TokenKind.ITEM:
            raise ValueError(
                f"token {self._tokens[token_id]!r} is not an item token"
            )
        return int(self._payloads[token_id])

    def top_k_by_count(self, k: int) -> np.ndarray:
        """Ids of the ``k`` most frequent tokens (ties broken by id)."""
        require(k >= 0, f"k must be >= 0, got {k}")
        if k == 0 or len(self) == 0:
            return np.empty(0, dtype=np.int64)
        counts = self.counts
        k = min(k, len(self))
        order = np.lexsort((np.arange(len(self)), -counts))
        return order[:k].astype(np.int64)

    def tokens(self) -> Iterable[str]:
        """Iterate over all token strings in id order."""
        return iter(self._tokens)

    def copy(self) -> "Vocabulary":
        """An independent vocabulary with the same tokens, ids and index."""
        clone = Vocabulary()
        clone._token_to_id = dict(self._token_to_id)
        clone._tokens = list(self._tokens)
        clone._kinds = list(self._kinds)
        clone._payloads = list(self._payloads)  # payloads are immutable
        clone._counts = list(self._counts)
        clone._ids_by_kind = {k: list(v) for k, v in self._ids_by_kind.items()}
        return clone

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (used by :meth:`EmbeddingModel.save`)."""
        return {
            "tokens": self._tokens,
            "kinds": [k.value for k in self._kinds],
            "payloads": [self._payload_to_json(p) for p in self._payloads],
            "counts": self._counts,
        }

    @staticmethod
    def _payload_to_json(payload: Any) -> Any:
        if isinstance(payload, tuple):
            return list(
                Vocabulary._payload_to_json(p) for p in payload
            )
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Vocabulary":
        """Inverse of :meth:`to_dict`."""
        vocab = cls()
        for token, kind, payload, count in zip(
            data["tokens"], data["kinds"], data["payloads"], data["counts"]
        ):
            vocab.add(
                token,
                TokenKind(kind),
                payload=cls._payload_from_json(payload),
                count=count,
            )
        return vocab

    @staticmethod
    def _payload_from_json(payload: Any) -> Any:
        if isinstance(payload, list):
            return tuple(Vocabulary._payload_from_json(p) for p in payload)
        return payload
