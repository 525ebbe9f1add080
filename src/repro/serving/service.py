"""The request/response vocabulary every serving layer shares.

:data:`TIERS`, :class:`MatchRequest`, :class:`MatchResult` and
:class:`MatchingServiceConfig` are what the matching service, the
gateway, the load generators and the evaluators all speak.  The service
itself — one request path for one shard or many — is
:class:`repro.serving.sharding.MatchingService`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import require_positive

#: Fallback tiers, cheapest first (the resolution order).
TIERS: tuple[str, ...] = ("table", "ann", "cold_item", "cold_user", "popularity")


@dataclass(frozen=True)
class MatchRequest:
    """One matching request: a warm item, a cold item, or a (cold) user.

    Exactly the union the online matcher sees: requests carrying a known
    ``item_id`` ride the warm tiers; an unknown/absent item with
    ``si_values`` is a cold item (Eq. 6); demographics without any item
    describe a cold user; anything else falls through to popularity.
    """

    item_id: int | None = None
    si_values: "dict[str, int] | None" = None
    gender: str | None = None
    age_bucket: str | None = None
    purchase_power: str | None = None

    def cache_key(self) -> tuple:
        """Hashable identity of this request (dicts made order-stable)."""
        si = (
            tuple(sorted(self.si_values.items()))
            if self.si_values is not None
            else None
        )
        return (self.item_id, si, self.gender, self.age_bucket, self.purchase_power)

    @property
    def has_demographics(self) -> bool:
        return (
            self.gender is not None
            or self.age_bucket is not None
            or self.purchase_power is not None
        )


@dataclass(frozen=True)
class MatchResult:
    """The service's answer: ranked items plus serving provenance."""

    items: np.ndarray
    scores: np.ndarray
    tier: str
    version: int
    cached: bool = False
    latency: float = 0.0


@dataclass
class MatchingServiceConfig:
    """Request-path knobs of the matching service."""

    default_k: int = 20
    cache_size: int = 4096
    cache_ttl: float | None = 60.0
    n_probe: int | None = None

    def validate(self) -> None:
        require_positive(self.default_k, "default_k")
        if self.cache_size:
            require_positive(self.cache_size, "cache_size")
        if self.cache_ttl is not None:
            require_positive(self.cache_ttl, "cache_ttl")
        if self.n_probe is not None:
            require_positive(self.n_probe, "n_probe")
