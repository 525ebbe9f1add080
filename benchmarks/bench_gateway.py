"""Extension bench — the network gateway vs in-process serving.

Not a paper figure: quantifies what the serving stack pays (and wins)
when requests cross a socket.  One world + model, then per shard count
(1 / 2 / 4):

- **in-process baseline** — the same request stream replayed through
  ``run_load`` (micro-batched, cache off), the ceiling no network stack
  can beat;
- **over-the-wire rate sweep** — a
  :class:`~repro.serving.gateway.RecommendGateway` (default config) on
  localhost driven by the multi-process open-loop network loadgen
  (:func:`~repro.serving.netload.run_netload`) at each of ``RATES``:
  p50/p95/p99 from the scheduled arrival, shed, errors, generator
  lateness and mean coalesced batch, with real sockets, HTTP parsing and
  request coalescing in the path.  The headline is the **knee**: the
  highest offered rate whose p99 stays under ``P99_BUDGET_MS`` with
  nothing shed — a latency at a rate the server sustains, not the depth
  of a saturated queue.

Plus one **overload scenario**: a deliberately tiny coalescing queue
(high water 8) on one executor slot, offered more than that slot can
absorb.  The contract is that the gateway *sheds* (429 + counter)
instead of queueing without bound — shed rate > 0, error rate == 0 —
and that batching engages by itself once the slot is busy (mean
coalesced batch > 1; there is no coalescing timer to force it).

Writes ``benchmarks/BENCH_gateway.json``.  Runs under pytest
(``pytest benchmarks/bench_gateway.py``) or standalone
(``python benchmarks/bench_gateway.py [--smoke]``).
"""

import argparse
import json
from pathlib import Path

from repro.core.sisg import SISG
from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig
from repro.graph.hbgp import HBGPConfig, hbgp_partition
from repro.serving import (
    GatewayConfig,
    GatewayThread,
    LoadMix,
    MatchingService,
    MatchingServiceConfig,
    ModelStore,
    NetLoadConfig,
    ShardedMatchingService,
    ShardedModelStore,
    build_bundle,
    run_load,
    run_netload,
    synth_requests,
)

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_gateway.json"

WORLD = SyntheticWorldConfig(
    n_items=500,
    n_users=200,
    n_leaf_categories=16,
    n_top_categories=4,
)
SHARD_COUNTS = (1, 2, 4)
N_REQUESTS = 1200
# Offered rates of the sweep, from far below to beyond what one box
# (gateway and both loadgen processes on the same cores) sustains.  Each
# step lasts STEP_SECONDS, long enough for a backlog to show if one grows.
RATES = (250.0, 500.0, 1000.0, 2000.0, 4000.0)
STEP_SECONDS = 2.0
# The sweep's latency limit is the gateway's own budget: a rate counts as
# sustained while the p99, timed from the scheduled arrival, stays under
# it and nothing is shed.
P99_BUDGET_MS = GatewayConfig().latency_budget_ms
K = 10
MIX = LoadMix(0.7, 0.1, 0.1, 0.1)


def build_setup(seed: int = 0):
    world = SyntheticWorld(WORLD, seed=seed)
    dataset = world.generate_dataset(n_sessions=1500)
    model = SISG.sisg_f_u(
        dim=24, epochs=2, window=2, negatives=5, seed=seed
    ).fit(dataset).model
    return dataset, model


def build_service(model, dataset, n_shards: int, seed: int = 0):
    """Cache off on every path so the numbers measure compute + transport."""
    config = MatchingServiceConfig(default_k=K, cache_size=0)
    if n_shards <= 1:
        bundle = build_bundle(
            model, dataset, n_cells=None, table_coverage=0.9, seed=seed
        )
        return MatchingService(ModelStore(bundle), config)
    partition = hbgp_partition(dataset, HBGPConfig(n_partitions=n_shards))
    store = ShardedModelStore.build(
        model, dataset, partition, n_cells=None, table_coverage=0.9, seed=seed
    )
    return ShardedMatchingService(store, config)


def _batch_mean(counters: dict, before: dict) -> float:
    """Mean coalesced batch size since the ``before`` counters."""

    def delta(name: str) -> int:
        return counters.get(name, 0) - before.get(name, 0)

    batches = delta("gateway_coalesced_batches")
    return delta("gateway_coalesced_requests") / batches if batches else 0.0


def measure_shard(
    model, dataset, n_shards: int, n_requests: int, rates, step_s: float,
    seed: int = 0,
) -> dict:
    """In-process ceiling, then the over-the-wire rate sweep, for one shard count."""
    requests = synth_requests(dataset, n_requests, mix=MIX, seed=seed)

    inproc_service = build_service(model, dataset, n_shards, seed)
    inproc = run_load(inproc_service, requests, k=K, batch_size=16)

    net_service = build_service(model, dataset, n_shards, seed)
    sweep = []
    counters: dict = {}
    with GatewayThread(net_service, GatewayConfig(port=0)) as gateway:
        for rate in rates:
            network = run_netload(
                dataset,
                NetLoadConfig(
                    port=gateway.port,
                    n_requests=int(rate * step_s),
                    rate=rate,
                    n_processes=2,
                    connections=8,
                    k=K,
                ),
                mix=MIX,
                seed=seed,
            )
            before, counters = counters, network["gateway"]["counters"]
            sweep.append(
                {
                    "offered_rate": rate,
                    "achieved_rate": network["achieved_rate"],
                    "latency_s": network["latency_s"],
                    "late_p99_ms": network["late_p99_ms"],
                    "ok": network["ok"],
                    "shed": network["shed"],
                    "errors": network["errors"],
                    "coalesced_batch_mean": _batch_mean(counters, before),
                }
            )
    sustained = [
        row["offered_rate"]
        for row in sweep
        if row["shed"] == 0
        and row["errors"] == 0
        and row["latency_s"]["p99"] * 1e3 < P99_BUDGET_MS
    ]
    return {
        "n_shards": n_shards,
        "inprocess": {
            "qps": inproc["qps"],
            "latency_s": inproc["latency_s"],
            "failures": inproc["failures"],
        },
        "sweep": sweep,
        "knee_rate": max(sustained, default=None),
    }


def measure_overload(model, dataset, n_requests: int, seed: int = 0) -> dict:
    """Offer far more than the service absorbs; shedding must engage."""
    service = build_service(model, dataset, 1, seed)
    config = GatewayConfig(
        port=0,
        max_batch=8,
        queue_high_water=8,
        latency_budget_ms=100.0,
        executor_threads=1,
    )
    with GatewayThread(service, config) as gateway:
        report = run_netload(
            dataset,
            NetLoadConfig(
                port=gateway.port,
                n_requests=n_requests,
                rate=6000.0,
                n_processes=2,
                connections=32,
                k=K,
                timeout_s=30.0,
            ),
            mix=LoadMix(1.0, 0.0, 0.0, 0.0),
            seed=seed,
        )
    counters = report["gateway"]["counters"]
    return {
        "offered_rate": report["offered_rate"],
        "ok": report["ok"],
        "shed": report["shed"],
        "errors": report["errors"],
        "shed_rate": report["shed_rate"],
        "qps": report["qps"],
        "latency_s": report["latency_s"],
        "shed_queue_full": counters.get("gateway_shed_queue_full", 0),
        "shed_expired": counters.get("gateway_shed_expired", 0),
        "coalesced_batch_mean": _batch_mean(counters, {}),
    }


def run(seed: int = 0, smoke: bool = False) -> dict:
    import os

    n_requests = 300 if smoke else N_REQUESTS
    rates, step_s = (RATES[::2], 0.5) if smoke else (RATES, STEP_SECONDS)
    dataset, model = build_setup(seed)
    return {
        # Loadgen processes and the gateway share these cores, so the
        # wire numbers include client CPU contention.
        "cpu_count": os.cpu_count(),
        "p99_budget_ms": P99_BUDGET_MS,
        "shards": [
            measure_shard(model, dataset, n, n_requests, rates, step_s, seed)
            for n in SHARD_COUNTS
        ],
        "overload": measure_overload(model, dataset, n_requests, seed),
    }


def check_report(report: dict) -> None:
    """Contract asserted by pytest and main() alike."""
    counts = [entry["n_shards"] for entry in report["shards"]]
    assert counts == list(SHARD_COUNTS)
    for entry in report["shards"]:
        shards = entry["n_shards"]
        for row in entry["sweep"]:
            assert row["errors"] == 0, f"network errors at {shards} shards"
            assert row["ok"] > 0
            for quantile in ("p50", "p95", "p99"):
                assert row["latency_s"][quantile] >= 0.0
        assert entry["knee_rate"] is not None, (
            f"no swept rate met the p99 budget at {shards} shards"
        )
        assert entry["inprocess"]["failures"] == 0
    overload = report["overload"]
    assert overload["errors"] == 0, "overload must shed, not error"
    assert overload["shed"] > 0 and overload["shed_rate"] > 0.0, (
        "load shedding never engaged under overload"
    )
    assert overload["ok"] > 0, "overload starved every request"
    assert overload["coalesced_batch_mean"] > 1.0, (
        "a busy slot must turn the backlog into batches"
    )


def test_gateway_report():
    report = run(seed=0, smoke=True)
    check_report(report)
    print("\nExtension — network gateway report (JSON)")
    print(json.dumps(report, indent=2, sort_keys=True))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller request counts; asserts the contract, skips the report file",
    )
    args = parser.parse_args()
    report = run(seed=0, smoke=args.smoke)
    check_report(report)
    print(json.dumps(report, indent=2, sort_keys=True))
    if not args.smoke:
        REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
