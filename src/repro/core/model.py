"""Trained embedding container with persistence.

An :class:`EmbeddingModel` bundles a vocabulary with the input and output
embedding matrices produced by a trainer (single-machine SGNS, the
distributed engine, or EGES after projection into token space), and
records which similarity the trainer meant the vectors to be scored
with.  Models round-trip through ``save``/``load`` as an ``.npz``
(matrices and similarity) plus a ``.vocab.json`` (vocabulary) pair.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.vocab import TokenKind, Vocabulary
from repro.utils import require

#: How item pairs are scored (see :mod:`repro.core.similarity`).
SIMILARITIES = ("cosine", "directional")


class EmbeddingModel:
    """Vocabulary + input/output embeddings in one joint semantic space.

    Parameters
    ----------
    vocab:
        Token vocabulary; its length must match the matrix row counts.
    w_in, w_out:
        Input (``v``) and output (``v'``) embedding matrices of shape
        ``(len(vocab), dim)``.
    similarity:
        ``"directional"`` for a model trained on forward-only pairs,
        whose items are scored ``v_i . v'_j``; ``"cosine"`` otherwise.
        Every index built over the model reads it.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        w_in: np.ndarray,
        w_out: np.ndarray,
        similarity: str = "cosine",
    ) -> None:
        w_in = np.asarray(w_in, dtype=np.float64)
        w_out = np.asarray(w_out, dtype=np.float64)
        require(w_in.ndim == 2, "w_in must be 2-dimensional")
        require(w_out.shape == w_in.shape, "w_in and w_out must have equal shapes")
        require(
            w_in.shape[0] == len(vocab),
            f"matrix rows ({w_in.shape[0]}) must match vocab size ({len(vocab)})",
        )
        require(
            similarity in SIMILARITIES,
            f"similarity must be one of {SIMILARITIES}, got {similarity!r}",
        )
        self.vocab = vocab
        self.similarity = similarity
        self.w_in = w_in
        self.w_out = w_out

    @property
    def dim(self) -> int:
        """Embedding dimensionality."""
        return self.w_in.shape[1]

    # ------------------------------------------------------------------
    # vector access
    # ------------------------------------------------------------------

    def vector(self, token: str, output: bool = False) -> np.ndarray:
        """Input (default) or output vector of ``token``.

        Raises ``KeyError`` for unknown tokens.
        """
        token_id = self.vocab.id_of(token)
        return (self.w_out if output else self.w_in)[token_id]

    def item_vector(self, item_id: int, output: bool = False) -> np.ndarray:
        """Vector of an item by its original ``item_id``."""
        return self.vector(f"item_{item_id}", output=output)

    def has_token(self, token: str) -> bool:
        """Whether ``token`` is in the vocabulary."""
        return token in self.vocab

    def tokens_of_kind(self, kind: TokenKind) -> list[str]:
        """All token strings of a given kind."""
        return [self.vocab.token_of(int(i)) for i in self.vocab.ids_of_kind(kind)]

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: "str | Path") -> None:
        """Write ``<path>.npz`` (matrices) and ``<path>.vocab.json``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path.with_suffix(".npz"),
            w_in=self.w_in,
            w_out=self.w_out,
            similarity=self.similarity,
        )
        with path.with_suffix(".vocab.json").open("w") as handle:
            json.dump(self.vocab.to_dict(), handle)

    @classmethod
    def load(cls, path: "str | Path") -> "EmbeddingModel":
        """Inverse of :meth:`save`; a file saved without a similarity
        loads as cosine."""
        path = Path(path)
        arrays = np.load(path.with_suffix(".npz"))
        with path.with_suffix(".vocab.json").open() as handle:
            vocab = Vocabulary.from_dict(json.load(handle))
        similarity = str(arrays["similarity"]) if "similarity" in arrays else "cosine"
        return cls(vocab, arrays["w_in"], arrays["w_out"], similarity)
