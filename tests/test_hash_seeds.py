"""The stateful serving suites pass whatever ``PYTHONHASHSEED`` is.

Python salts ``hash()`` of ``str`` and ``bytes`` per process, so code that
hashes keys with it, or walks a set on a byte-identity path, can pass
under one seed and fail under the next.  The cache, gateway-coalescing
and sharding-merge suites run here in a subprocess under three fixed
seeds, and ``src/`` may not call the builtin ``hash``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SUITES = [
    "tests/serving/test_cache.py",
    "tests/serving/test_gateway.py::TestCoalescing",
    "tests/serving/test_sharding.py::TestMergeTopk",
    "tests/serving/test_sharding.py::TestTieHeavyEquivalence",
]


@pytest.mark.parametrize("seed", ["0", "24", "27"])
def test_serving_suites_pass_under_hash_seed(seed):
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *SUITES],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]


def test_src_calls_no_builtin_hash():
    call = re.compile(r"(?<![\w.])hash\(")
    offenders = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if call.search(line)
    ]
    assert not offenders, f"salted builtin hash() in src/: {offenders}"
