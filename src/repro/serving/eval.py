"""Serving-side HR@K: route the next-item evaluator through a service.

Offline HR@K scores the exact similarity index; the online path answers
through candidate tables, approximate ANN probes and fallback tiers.
This module adapts any matching service — sharded or not — to the
:class:`~repro.eval.hitrate.Recommender` protocol so the same evaluator
quantifies what the serving stack costs in hit rate versus the exact
index (ROADMAP's "serving-side eval" item).
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.data.schema import Session
from repro.eval.hitrate import DEFAULT_KS, HitRateResult, evaluate_hitrate
from repro.serving.service import MatchResult


class AnsweringService(Protocol):
    """What the evaluator needs of a matching service."""

    def recommend_batch(
        self, requests: list, k: int | None = None
    ) -> list[MatchResult]: ...

    def knows_item(self, item_id: int) -> bool: ...


class ServiceRecommender:
    """Adapts a matching service to the HR@K evaluator's protocol.

    ``__contains__`` reports warm-tier answerability (table or ANN);
    queries the service cannot answer warmly count as misses, exactly
    like items missing from an offline index.
    """

    def __init__(self, service: AnsweringService, batch_size: int = 256) -> None:
        self._service = service
        self._batch_size = batch_size

    def __contains__(self, item_id: int) -> bool:
        return self._service.knows_item(int(item_id))

    def topk_batch(self, item_ids: np.ndarray, k: int) -> np.ndarray:
        item_ids = np.asarray(item_ids, dtype=np.int64)
        out = np.full((len(item_ids), k), -1, dtype=np.int64)
        for start in range(0, len(item_ids), self._batch_size):
            chunk = item_ids[start : start + self._batch_size]
            results = self._service.recommend_batch(
                [int(i) for i in chunk], k
            )
            for row, result in enumerate(results):
                items = result.items[:k]
                out[start + row, : len(items)] = items
        return out


def evaluate_service_hitrate(
    service: AnsweringService,
    test_sessions: Sequence[Session],
    ks: Sequence[int] = DEFAULT_KS,
    name: str = "serving",
    batch_size: int = 256,
) -> HitRateResult:
    """HR@K of the *served* answers (tables + ANN + fallbacks included)."""
    recommender = ServiceRecommender(service, batch_size=batch_size)
    return evaluate_hitrate(
        recommender, test_sessions, ks=ks, name=name, batch_size=batch_size
    )
