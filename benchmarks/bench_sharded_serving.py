"""Extension bench — the matching service over 1 / 2 / 4 HBGP shards.

Not a paper figure: quantifies what cutting the catalogue into shards
costs and buys.  There is one service class; the baseline row is its
one-shard constructor, ``MatchingService(ModelStore(build_bundle(...)))``,
and the other rows hand the same class an HBGP-partitioned
``ShardedModelStore``.  Trains one model and reports as JSON, per shard
count:

- **throughput** of a warm+cold request replay (cache off, so the
  numbers measure compute);
- **per-shard swap cost** — the time to rebuild and swap *one*
  partition's artifacts (for one shard: the whole bundle — the
  operational win is that a nightly refresh of one shard of four does
  not rebuild the world);
- **serving-side HR@10/20** through the service, next to the
  exact-index HR as the ceiling (what the serving stack costs in hit
  rate).

Asserts the routing contract: with full table coverage and exhaustive
ANN, N shards return identical (ids, scores, tier) to the one-shard
baseline on a fixed request set.

Runs under pytest (``pytest benchmarks/bench_sharded_serving.py``) or
standalone (``python benchmarks/bench_sharded_serving.py``, which also
writes ``benchmarks/BENCH_sharded_serving.json``).
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.similarity import SimilarityIndex
from repro.core.sisg import SISG
from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig
from repro.eval.hitrate import evaluate_hitrate
from repro.graph.hbgp import HBGPConfig, hbgp_partition
from repro.serving import (
    LoadMix,
    MatchingService,
    MatchingServiceConfig,
    ModelStore,
    ShardedModelStore,
    build_bundle,
    build_shard_bundle,
    evaluate_service_hitrate,
    synth_requests,
)

WORLD = SyntheticWorldConfig(
    n_items=600,
    n_users=250,
    n_leaf_categories=16,
    n_top_categories=4,
)
SHARD_COUNTS = (1, 2, 4)
N_REQUESTS = 1500
N_CONTRACT_REQUESTS = 200
K = 10
HR_KS = (10, 20)
NO_CACHE = MatchingServiceConfig(default_k=K, cache_size=0)
REPORT_PATH = Path(__file__).resolve().parent / "BENCH_sharded_serving.json"


def host_context() -> dict:
    """The facts needed to compare this report with another run's."""
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX
        load = None
    return {
        "cpu_count": os.cpu_count() or 1,
        "loadavg": load,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def build_setup(seed: int = 0):
    """One world + model shared by every shard count."""
    world = SyntheticWorld(WORLD, seed=seed)
    full = world.generate_dataset(n_sessions=2000)
    train, test = full.split_last_item()
    model = SISG.sisg_f_u(
        dim=24, epochs=2, window=2, negatives=5, seed=seed
    ).fit(train).model
    return train, test, model


def build_service(model, dataset, n_shards: int, seed: int = 0, **build_kwargs):
    """``(store, service, rebuild_shard_0)`` for one shard count.

    One shard is the baseline constructor over a plain ``ModelStore``;
    N >= 2 partitions with HBGP.  Cache off, so throughput = compute.
    """
    if n_shards == 1:
        store = ModelStore(build_bundle(model, dataset, seed=seed, **build_kwargs))

        def rebuild(new_seed: int):
            return build_bundle(model, dataset, seed=new_seed, **build_kwargs)

    else:
        partition = hbgp_partition(dataset, HBGPConfig(n_partitions=n_shards))
        store = ShardedModelStore.build(
            model, dataset, partition, seed=seed, **build_kwargs
        )

        def rebuild(new_seed: int):
            return build_shard_bundle(
                model,
                dataset,
                np.flatnonzero(store.item_partition == 0),
                seed=new_seed,
                **build_kwargs,
            )

    return store, MatchingService(store, NO_CACHE), rebuild


def measure_shard(model, dataset, test, n_shards: int, seed: int = 0) -> dict:
    """Throughput + per-shard swap + serving HR for one shard count."""
    store, service, rebuild = build_service(
        model, dataset, n_shards, seed, n_cells=None, table_coverage=0.9
    )
    requests = synth_requests(
        dataset, N_REQUESTS, mix=LoadMix(0.7, 0.1, 0.1, 0.1), seed=seed
    )

    start = time.perf_counter()
    for position in range(0, len(requests), 16):
        service.recommend_batch(requests[position : position + 16], K)
    duration = time.perf_counter() - start

    # Per-shard swap: rebuild ONE partition's artifacts and swap it in.
    swap_start = time.perf_counter()
    service.swap_shard(0, rebuild(seed + 1))
    swap_seconds = time.perf_counter() - swap_start

    hr = evaluate_service_hitrate(service, test, ks=HR_KS, name=f"{n_shards}-shard")
    return {
        "n_shards": n_shards,
        "qps": N_REQUESTS / duration,
        "duration_s": duration,
        "shard_swap_s": swap_seconds,
        "shard_items": int(store.snapshot()[0].index.n_items),
        "store_version": store.version,
        "serving_hr": {str(k): hr.hit_rates[k] for k in HR_KS},
    }


def contract(seed: int = 1) -> dict:
    """N shards == the one-shard baseline: ids, scores and tier.

    Full coverage + one exhaustive ANN cell, so no approximation can
    excuse a difference.
    """
    dataset, _test, model = build_setup(seed)
    requests = synth_requests(dataset, N_CONTRACT_REQUESTS, seed=seed)
    answers = {}
    for n_shards in SHARD_COUNTS:
        _store, service, _rebuild = build_service(
            model, dataset, n_shards, seed, n_cells=1, table_coverage=1.0
        )
        answers[n_shards] = [service.recommend(r, K) for r in requests]
    baseline = answers[1]
    differing = {
        str(n): sum(
            a.tier != b.tier
            or a.items.tobytes() != b.items.tobytes()
            or a.scores.tobytes() != b.scores.tobytes()
            for a, b in zip(baseline, answers[n])
        )
        for n in SHARD_COUNTS[1:]
    }
    return {"n_requests": len(requests), "differing_vs_one_shard": differing}


def run(seed: int = 0) -> dict:
    """The full comparison; returns the JSON-serializable report."""
    dataset, test, model = build_setup(seed)
    exact = evaluate_hitrate(
        SimilarityIndex(model), test, ks=HR_KS, name="exact"
    )
    return {
        "host": host_context(),
        "exact_hr": {str(k): exact.hit_rates[k] for k in HR_KS},
        "shards": [
            measure_shard(model, dataset, test, n, seed) for n in SHARD_COUNTS
        ],
        "contract": contract(),
    }


def check_report(report: dict) -> None:
    """Contract asserted by pytest and main() alike."""
    counts = [entry["n_shards"] for entry in report["shards"]]
    assert counts == list(SHARD_COUNTS)
    for entry in report["shards"]:
        assert entry["qps"] > 0
        assert entry["shard_swap_s"] > 0
        for k in HR_KS:
            served = entry["serving_hr"][str(k)]
            ceiling = report["exact_hr"][str(k)]
            assert served <= ceiling + 0.05, "serving cannot beat the exact index"
            assert served >= ceiling * 0.5, "serving HR collapsed vs exact"
    # The operational win: one shard of a 4-way split rebuilds (much)
    # faster than the whole bundle (the one-shard row's swap).
    one, _two, four = report["shards"]
    assert four["shard_swap_s"] < one["shard_swap_s"]
    assert set(report["contract"]["differing_vs_one_shard"].values()) == {0}


def test_sharded_report():
    report = run(seed=0)
    check_report(report)
    print("\nExtension — sharded serving report (JSON)")
    print(json.dumps(report, indent=2, sort_keys=True))


def test_scatter_gather_matches_unsharded():
    """Full coverage: N-shard answers == one-shard answers, ids and scores."""
    result = contract(seed=1)
    assert result["n_requests"] == N_CONTRACT_REQUESTS
    assert set(result["differing_vs_one_shard"].values()) == {0}, result


def main() -> None:
    report = run(seed=0)
    check_report(report)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    REPORT_PATH.write_text(text + "\n")
    print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
