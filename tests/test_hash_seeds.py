"""The stateful serving suites pass whatever ``PYTHONHASHSEED`` is.

Python salts ``hash()`` of ``str`` and ``bytes`` per process, so code that
hashes keys with it, or walks a set on a byte-identity path, can pass
under one seed and fail under the next.  The cache, gateway-coalescing
and sharding-merge suites run here in a subprocess under three fixed
seeds, and ``src/`` may not call the builtin ``hash``.  One train →
build → serve run digests to the same bytes under the same seeds.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SUITES = [
    "tests/serving/test_cache.py",
    "tests/serving/test_gateway.py::TestCoalescing",
    "tests/serving/test_sharding.py::TestMergeTopk",
    "tests/serving/test_sharding.py::TestTieHeavyEquivalence",
]

HASH_SEEDS = ["0", "24", "27"]

#: Trains a small SISG-F-U-D, serves a fixed request list (every tier,
#: singles then one batch of cache hits) and prints one SHA-256 over the
#: weights, the vocabulary and every answer, then the tiers it reached.
END_TO_END = textwrap.dedent(
    """
    import hashlib
    import json

    import numpy as np

    from repro.core.sisg import SISG
    from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig
    from repro.serving import (
        LoadMix, MatchingService, ModelStore, build_bundle, synth_requests,
    )

    world = SyntheticWorld(SyntheticWorldConfig(n_items=300, n_users=120), seed=5)
    dataset = world.generate_dataset(n_sessions=800)
    model = SISG.sisg_f_u_d(
        dim=16, epochs=1, window=2, negatives=4, seed=3
    ).fit(dataset).model
    service = MatchingService(
        ModelStore(build_bundle(model, dataset, table_coverage=0.5, seed=0))
    )
    requests = synth_requests(dataset, 120, LoadMix(), seed=9)
    results = [service.recommend(r, k=10) for r in requests]
    results += service.recommend_batch(requests, k=10)

    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(model.w_in).tobytes())
    digest.update(np.ascontiguousarray(model.w_out).tobytes())
    digest.update(json.dumps(model.vocab.to_dict(), sort_keys=True).encode())
    for result in results:
        digest.update(np.ascontiguousarray(result.items).tobytes())
        digest.update(np.ascontiguousarray(result.scores).tobytes())
    print(digest.hexdigest())
    print(" ".join(sorted({result.tier for result in results})))
    """
)


def _run_under_seed(args, seed):
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("seed", HASH_SEEDS)
def test_serving_suites_pass_under_hash_seed(seed):
    result = _run_under_seed(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", *SUITES], seed
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]


def test_train_and_serve_digest_is_hash_seed_free():
    outputs = set()
    for seed in HASH_SEEDS:
        result = _run_under_seed(["-c", END_TO_END], seed)
        assert result.returncode == 0, result.stderr[-4000:]
        outputs.add(result.stdout)
    assert len(outputs) == 1, f"digest depends on PYTHONHASHSEED: {outputs}"
    tiers = outputs.pop().split("\n")[1].split()
    assert tiers == ["ann", "cold_item", "cold_user", "popularity", "table"]


def test_src_calls_no_builtin_hash():
    call = re.compile(r"(?<![\w.])hash\(")
    offenders = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if call.search(line)
    ]
    assert not offenders, f"salted builtin hash() in src/: {offenders}"
