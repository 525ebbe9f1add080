"""Extension bench — the nightly refresh daemon under live traffic.

Not a paper figure: quantifies the refresh subsystem this repo adds on
top of the serving stack.  Two scenarios, one JSON report:

- ``refresh_under_load`` — the daemon warm-starts, rebuilds and promotes
  on its background thread while synthetic traffic replays against the
  service.  The deployment contract: **zero** failed requests and both
  generations served.
- ``failure_isolation`` — a build failure is injected past the retry
  budget; the cycle must fail *without* touching the live bundle, so the
  previous generation keeps answering (asserted in the JSON output).

Runs under pytest (``pytest benchmarks/bench_refresh.py``) or standalone
(``python benchmarks/bench_refresh.py``).
"""

import json
import time

from repro.core.sgns import SGNSConfig
from repro.core.sisg import SISG
from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig
from repro.serving import (
    LoadMix,
    MatchingService,
    MatchingServiceConfig,
    ModelStore,
    RefreshConfig,
    RefreshDaemon,
    bootstrap_day_source,
    build_bundle,
    failing_build_hook,
    run_load,
    synth_requests,
)

WORLD = SyntheticWorldConfig(
    n_items=500,
    n_users=250,
    n_leaf_categories=10,
    n_top_categories=4,
)
N_REQUESTS = 1500
BATCH_SIZE = 16
K = 10
#: Cheap warm-start continuation so one cycle stays sub-second-ish,
#: trained in float32 like every trainer in the ``bench`` harness.
TRAIN = SGNSConfig(
    dim=16, epochs=1, window=2, negatives=3, seed=0, dtype="float32"
)


def build_setup(seed: int = 0):
    """Train a model and stand up the service (shared by pytest + main)."""
    world = SyntheticWorld(WORLD, seed=seed)
    dataset = world.generate_dataset(n_sessions=1500)
    model = SISG.sisg_f_u(
        dim=16, epochs=1, window=2, negatives=3, seed=seed
    ).fit(dataset).model
    bundle = build_bundle(
        model, dataset, n_cells=20, table_coverage=0.8, seed=seed
    )
    store = ModelStore(bundle)
    service = MatchingService(
        store, MatchingServiceConfig(default_k=K, cache_size=4096, cache_ttl=None)
    )
    return dataset, model, store, service


def refresh_config(seed: int = 0, **overrides) -> RefreshConfig:
    defaults = dict(
        interval=0.05,
        max_retries=2,
        backoff_base=0.02,
        backoff_cap=0.1,
        jitter=0.0,
        train_config=TRAIN,
        build_kwargs={"n_cells": 20, "table_coverage": 0.8, "seed": seed},
    )
    defaults.update(overrides)
    return RefreshConfig(**defaults)


def run_refresh_under_load(seed: int = 0, timeout: float = 180.0) -> dict:
    """Replay load passes while the daemon refreshes in the background.

    Keeps replaying the request stream until at least one promotion has
    landed and both generations have answered requests, then reports the
    accumulated counts.
    """
    dataset, _model, _store, service = build_setup(seed)
    requests = synth_requests(
        dataset, N_REQUESTS, mix=LoadMix(0.7, 0.1, 0.1, 0.1), seed=seed
    )
    daemon = RefreshDaemon(
        service,
        bootstrap_day_source(dataset, seed=seed + 1),
        refresh_config(seed),
    )
    versions: set = set()
    failures = served = passes = 0
    deadline = time.time() + timeout
    with daemon:
        while True:
            report = run_load(service, requests, k=K, batch_size=BATCH_SIZE)
            passes += 1
            failures += report["failures"]
            served += report["served"]
            versions.update(report["versions_served"])
            promoted = sum(r.promoted for r in daemon.history)
            if (promoted >= 1 and len(versions) >= 2) or time.time() > deadline:
                break
    status = daemon.status()
    return {
        "load_passes": passes,
        "served": served,
        "failures": failures,
        "versions_served": sorted(versions),
        "cycles": status["cycles"],
        "promotions": sum(r["promoted"] for r in status["history"]),
        "final_version": status["store_version"],
        "cache_hit_rate": service.snapshot()["cache_hit_rate"],
    }


def run_failure_isolation(seed: int = 0) -> dict:
    """Inject build failures past the retry budget; the old bundle must
    stay live and keep serving."""
    dataset, _model, store, service = build_setup(seed)
    daemon = RefreshDaemon(
        service,
        bootstrap_day_source(dataset, seed=seed + 1),
        refresh_config(seed, max_retries=1),
        fault_hook=failing_build_hook({"build": 99}),
        seed=seed,
    )
    report = daemon.run_once()
    item = int(store.current().table.item_ids[0])
    result = service.recommend(item, K)
    return {
        "promoted": report.promoted,
        "attempts": report.attempts,
        "error": report.error,
        "store_version": store.version,
        "previous_bundle_live": bool(
            result.version == 0 and len(result.items) > 0
        ),
    }


def run(seed: int = 0) -> dict:
    return {
        "refresh_under_load": run_refresh_under_load(seed),
        "failure_isolation": run_failure_isolation(seed + 1),
    }


def check_report(report: dict) -> None:
    """The refresh contract asserted by pytest and main() alike."""
    load = report["refresh_under_load"]
    assert load["failures"] == 0, "refresh must not fail any request"
    assert load["promotions"] >= 1, "the daemon never promoted a generation"
    assert len(load["versions_served"]) >= 2, "both generations must serve"
    iso = report["failure_isolation"]
    assert not iso["promoted"], "a failed build must not promote"
    assert iso["store_version"] == 0, "a failed build must not touch the store"
    assert iso["previous_bundle_live"], "the old generation must keep serving"
    assert "injected build failure" in iso["error"]


def test_refresh_report(benchmark):
    report = run(seed=0)
    check_report(report)

    print("\nExtension — refresh daemon report (JSON)")
    print(json.dumps(report, indent=2, sort_keys=True))
    load = report["refresh_under_load"]
    print(
        f"\n{load['load_passes']} load passes, {load['served']} served,"
        f" {load['failures']} failures; versions {load['versions_served']},"
        f" {load['promotions']} promotions"
    )

    # Time one full refresh cycle (ingest -> train -> build -> promote).
    dataset, _model, _store, service = build_setup(seed=2)
    daemon = RefreshDaemon(
        service, bootstrap_day_source(dataset, seed=3), refresh_config(2)
    )
    benchmark(daemon.run_once)


def main() -> None:
    report = run(seed=0)
    check_report(report)
    print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
