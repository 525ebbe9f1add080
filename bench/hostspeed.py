"""How fast the host is running right now, against a fixed reference.

The reference box is a shared 2-vCPU VM whose cores change speed under
the tenant next door: over a few minutes a fixed pure-Python loop takes
0.45-0.71 ms and a fixed numpy kernel 1.4-2.3 ms, in phases that last
tens of seconds, with CPU time equal to wall time (the guest sees no
steal).  Every compute-bound duration inherits that factor, so identical
runs of a 3-second fit spread 28 % in a bad phase — more than any bound
``BENCHMARK.json`` may set — and no estimator inside one run removes a
slowdown that outlasts the run.

So the harness times a fixed calibration kernel right before and right
after each compute-bound phase, in the process and on the core that does
the work, and reports that phase's duration divided by

    speed factor = kernel time now / ``REFERENCE_S``

i.e. in seconds of the reference host.  In the bad phase above the same
fits spread 9 % once corrected.  The uncorrected values are kept in every
result (``raw``) and printed beside the corrected ones; the factor is the
per-layer metric ``host.speed_factor``.  Only phases with no timer in
them are corrected (fit, publish, refresh, stream apply, set-up work);
request latency contains the gateway's 2 ms coalescing wait and is
reported as measured.
"""

from __future__ import annotations

import statistics

import numpy as np

from bench.trace import now

#: Kernel time on the reference box in a quiet phase.  A constant, so a
#: corrected time means the same thing in every run of every commit.
REFERENCE_S = 1.5e-3

_ROWS, _DIM, _LOOP = 24576, 32, 15000


class Calibrator:
    """Owns the kernel's buffers; one per process that times compute phases."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._index = rng.integers(0, 5000, size=_ROWS)
        self._table = rng.random((5000, _DIM)).astype(np.float32)
        self._weight = rng.random((_ROWS, _DIM)).astype(np.float32)
        self._rows = np.empty((_ROWS, _DIM), np.float32)
        self._dots = np.empty(_ROWS, np.float32)

    def _kernel(self) -> None:
        """Gather, multiply, row-dot and an interpreter loop: the trainer's diet.

        Everything writes into preallocated buffers, so the kernel's time
        does not depend on what the allocator was left holding by the
        phase before.
        """
        np.take(self._table, self._index, axis=0, out=self._rows)
        np.multiply(self._rows, self._weight, out=self._rows)
        np.einsum("bd,bd->b", self._rows, self._weight, out=self._dots)
        total = 0
        for i in range(_LOOP):  # the sum is discarded: the loop is the work
            total += i

    def sample(self, repeats: int = 40) -> float:
        """Median kernel time over ``repeats`` runs (one discarded first), in seconds."""
        self._kernel()
        times = []
        for _ in range(repeats):
            start = now()
            self._kernel()
            times.append(now() - start)
        return statistics.median(times)


def factor(samples: "list[float]") -> float:
    """Speed factor of a phase from the samples taken around it (> 1 = slow host)."""
    return statistics.fmean(samples) / REFERENCE_S
