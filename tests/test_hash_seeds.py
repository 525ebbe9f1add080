"""The stateful serving suites pass whatever ``PYTHONHASHSEED`` is.

Python salts ``hash()`` of ``str`` and ``bytes`` per process, so code that
hashes keys with it, or walks a set on a byte-identity path, can pass
under one seed and fail under the next.  The cache, gateway-coalescing
and sharding-merge suites run here in a subprocess under three fixed
seeds, and ``src/`` may not call the builtin ``hash``.  One train →
build → serve run, a warm start and a streamed window digest to the same
bytes under the same seeds.
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
#: singles then one batch of cache hits), warm-starts it on a second day
#: and applies one stream window to the live store, then prints one
#: SHA-256 over the weights, the vocabulary, every answer and both
#: warm-started generations, then the tiers it reached.
END_TO_END = textwrap.dedent(
    """
    import hashlib
    import json

    import numpy as np

    from repro.core.incremental import incremental_update
    from repro.core.sisg import SISG
    from repro.data.schema import BehaviorDataset
    from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig
    from repro.serving import (
        LoadMix, MatchingService, ModelStore, build_bundle, synth_requests,
    )
    from repro.streaming import EventLog, StreamApplier, SyntheticEventStream

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

    day1 = BehaviorDataset(
        dataset.items, dataset.users,
        world.generate_sessions(dataset.users, 200), validate=False,
    )
    warm = incremental_update(model, day1, seed=1)
    log = EventLog()
    applier = StreamApplier(service, log, day1, seed=2)
    log.extend(SyntheticEventStream(day1, events_per_window=96, seed=4).window())
    assert all(report.applied for report in applier.run_pending())
    (streamed,) = service.store.snapshot()

    digest = hashlib.sha256()

    def add(*arrays):
        for array in arrays:
            digest.update(np.ascontiguousarray(array).tobytes())

    for m in (model, warm, streamed.model):
        add(m.w_in, m.w_out, m.vocab.counts)
        digest.update(json.dumps(m.vocab.to_dict(), sort_keys=True).encode())
    for result in results:
        add(result.items, result.scores)
    table = streamed.table
    add(table._items, table._candidates, table._scores, streamed.ann._centroids,
        *streamed.ann._cells, streamed.popular_items, streamed.popular_scores)
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
