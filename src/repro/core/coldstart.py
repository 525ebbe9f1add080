"""Cold-start recipes (Section IV-C of the paper).

- **Cold-start items** (Eq. 6): a brand-new item ``v`` with no
  interactions gets the inferred vector ``v = sum_k SI_k(v)`` — the sum of
  the input vectors of its SI instances.  Retrieval then proceeds as for
  any other query vector.
- **Cold-start users**: a user with no history is served from the average
  of all user-type input vectors whose type matches the user's known
  demographics (e.g. all types containing "female" and "age 21-25").
"""

from __future__ import annotations

from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.core.enrichment import si_token
from repro.core.model import EmbeddingModel
from repro.data.schema import AGE_BUCKETS, GENDERS, PURCHASE_POWERS
from repro.utils import require


class VectorIndex(Protocol):
    """Any retrieval index answering vector queries.

    Both the exact :class:`~repro.core.similarity.SimilarityIndex` and
    the approximate :class:`~repro.core.ann.IVFIndex` satisfy this, so
    cold-start retrieval works against whichever index the caller
    serves from (the online service uses the ANN index).
    """

    def topk_by_vector(
        self, vector: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]: ...


def infer_cold_item_vectors(
    model: EmbeddingModel, si_values: Sequence[Mapping[str, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 6 for many brand-new items at once: ``(vectors, known)``.

    Row ``i`` sums, in ``si_values[i]``'s order, the input vectors of
    that item's SI instances present in the vocabulary.  Where none is,
    ``known[i]`` is ``False`` and the row stays zero: the caller decides
    what such an item gets.
    """
    vectors = np.zeros((len(si_values), model.dim))
    known = np.zeros(len(si_values), dtype=bool)
    for row, (vector, values) in enumerate(zip(vectors, si_values)):
        for feature, value in values.items():
            token = si_token(feature, value)
            if model.has_token(token):
                vector += model.vector(token)
                known[row] = True
    return vectors, known


def infer_cold_item_vector(
    model: EmbeddingModel, si_values: dict[str, int]
) -> np.ndarray:
    """Eq. 6: sum of the SI input vectors known for a brand-new item.

    SI instances absent from the vocabulary (values never seen in
    training) are skipped; at least one must be present.
    """
    vectors, known = infer_cold_item_vectors(model, [si_values])
    require(
        bool(known[0]),
        "none of the item's SI instances are in the trained vocabulary;"
        " cannot infer a cold-start vector",
    )
    return vectors[0]


def recommend_for_cold_item(
    model: EmbeddingModel,
    index: VectorIndex,
    si_values: dict[str, int],
    k: int = 20,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` items for a new item described only by its SI (Fig. 6)."""
    vector = infer_cold_item_vector(model, si_values)
    return index.topk_by_vector(vector, k)


def _matching_user_type_ids(
    model: EmbeddingModel,
    gender: str | None,
    age_bucket: str | None,
    purchase_power: str | None,
) -> np.ndarray:
    """Vocabulary ids of user-type tokens matching the given demographics.

    One mask over the vocabulary's user-type key table: nothing here
    iterates the vocabulary, so a request costs the same however large
    it grows.
    """
    ids, keys = model.vocab.user_type_keys()
    mask = np.ones(len(ids), dtype=bool)
    for column, (value, known, label) in enumerate(
        (
            (gender, GENDERS, "gender"),
            (age_bucket, AGE_BUCKETS, "age bucket"),
            (purchase_power, PURCHASE_POWERS, "purchase power"),
        )
    ):
        if value is not None:
            require(value in known, f"unknown {label} {value!r}; expected {known}")
            mask &= keys[:, column] == known.index(value)
    return ids[mask]


def cold_user_vector(
    model: EmbeddingModel,
    gender: str | None = None,
    age_bucket: str | None = None,
    purchase_power: str | None = None,
) -> np.ndarray:
    """Average of all user-type vectors matching the given demographics.

    Passing no filters averages *all* user types (a population prior).
    Raises ``ValueError`` when no trained user type matches.
    """
    matches = _matching_user_type_ids(model, gender, age_bucket, purchase_power)
    require(
        len(matches) > 0,
        "no trained user type matches the requested demographics"
        f" (gender={gender!r}, age={age_bucket!r}, power={purchase_power!r})",
    )
    return model.w_in[matches].mean(axis=0)


def recommend_for_cold_user(
    model: EmbeddingModel,
    index: VectorIndex,
    k: int = 20,
    gender: str | None = None,
    age_bucket: str | None = None,
    purchase_power: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` items for a no-history user described by demographics (Fig. 4)."""
    vector = cold_user_vector(model, gender, age_bucket, purchase_power)
    return index.topk_by_vector(vector, k)
