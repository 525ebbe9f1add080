"""Shared utilities: deterministic RNG handling, logging, timing, validation,
the CPU count.

These helpers are deliberately small.  Everything in :mod:`repro` that
involves randomness accepts either an integer seed or a
:class:`numpy.random.Generator`; :func:`ensure_rng` normalizes both into a
``Generator`` so experiments are reproducible end to end.
"""

from repro.utils.cpus import available_cpus
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.logger import get_logger
from repro.utils.timer import Timer
from repro.utils.validation import (
    require,
    require_positive,
    require_in_range,
    require_type,
)

__all__ = [
    "available_cpus",
    "ensure_rng",
    "spawn_rngs",
    "get_logger",
    "Timer",
    "require",
    "require_positive",
    "require_in_range",
    "require_type",
]
