"""The benchmark scripts record the CPUs they may run on, not the host's.

Their scaling contracts are gated on the recorded ``host.cpu_count``: a
run pinned to one CPU (``taskset -c 0``) must record 1 and skip the
2-core checks, not time-slice 2 workers and fail them.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_script(name: str, monkeypatch):
    """Import ``benchmarks/<name>.py`` under a name of its own."""
    module_name = f"_host_check_{name}"
    spec = importlib.util.spec_from_file_location(
        module_name, BENCHMARKS / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, module_name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no affinity mask on this OS"
)
@pytest.mark.parametrize(
    "script",
    ["bench_training_throughput", "bench_fig7a_workers", "bench_sharded_serving"],
)
def test_host_cpu_count_reads_the_affinity_mask(script, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0})
    module = load_script(script, monkeypatch)
    assert module.host_context()["cpu_count"] == 1
    # Read at import time; the parity models run one worker per CPU.
    assert getattr(module, "PARITY_WORKERS", 1) == 1
