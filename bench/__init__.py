"""The repository's benchmark: five workloads, measured end to end and per layer.

Run it from the repository root::

    python3 -m bench run --workload wire_single --seed 1 --seconds 12 --trace 0

See ``bench/README.md`` for the workloads, the metric glossary and how to
read a trace.

Importing this package does two things every process of the harness
needs before it touches numpy or ``repro`` (the spawned gateway child
imports ``bench.child`` first, so it passes through here too):

- it pins the BLAS/OpenMP pools to one thread.  On the 2-core reference
  box an unpinned pool oversubscribes the cores the workers and the
  load generator need (sequential trainer 709k -> 889k pairs/s with the
  pin, and less run-to-run spread);
- it puts the checkout's ``src/`` on ``sys.path`` so ``import repro``
  works without ``PYTHONPATH`` (``BENCHMARK.json``'s command may name
  nothing outside ``bench/``).
"""

import os
import sys
from pathlib import Path

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

for _name in THREAD_PINS:
    os.environ[_name] = "1"

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
