"""Extension bench — streaming ingest between nightly refreshes.

Not a paper figure: quantifies the live-mutation subsystem
(``repro.streaming``) layered on the serving stack.  Four scenarios,
one JSON report:

- ``cold_item_recovery`` — the paper's motivating gap: brand-new
  listings arrive *between* nightly builds.  A batch-only service
  structurally scores HR@10 = 0 on next-item sessions whose held-out
  label is a new listing (the id is not in its tables); the streamed
  service must beat it strictly, and the per-window apply latency
  (p50/p95/p99) is what that freshness costs.
- ``mid_stream_traffic`` — windows apply while a small pool of client
  threads reads ``/recommend`` over the wire (warm, streamed and
  unknown ids); the deployment contract is zero request errors across
  at least two applied windows (every promote runs under the gateway's
  writer-priority swap gate).
- ``reconcile`` — after streamed windows, a full nightly refresh lands
  on the same store, from a daemon built before the stream started.
  Both promote from the live generation: the streamed listings must
  survive the nightly, a window appended after it must apply, and the
  nightly's drift from the streamed model (the daemon's own gate) must
  stay within the gate.
- ``sharded_incremental`` — on a 2-shard HBGP store, a window touching
  one shard rebuilds only that shard, and a hot-item skew triggers
  incremental moves (re-routes, never a full re-partition) with both
  endpoint shards rebuilt.

Writes ``benchmarks/BENCH_streaming.json``.  Runs under pytest
(``pytest benchmarks/bench_streaming.py``) or standalone
(``python benchmarks/bench_streaming.py [--smoke]``).
"""

import argparse
import http.client
import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.sgns import SGNSConfig
from repro.core.sisg import SISG
from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig
from repro.graph.hbgp import HBGPConfig, hbgp_partition
from repro.serving import (
    GatewayConfig,
    GatewayThread,
    MatchingService,
    MatchingServiceConfig,
    ModelStore,
    RefreshConfig,
    RefreshDaemon,
    ShardedMatchingService,
    ShardedModelStore,
    bootstrap_day_source,
    build_bundle,
    fetch_json,
    latency_percentiles,
)
from repro.serving.loadgen import ZIPF_A
from repro.streaming import (
    ClickEvent,
    EventLog,
    StreamApplier,
    StreamConfig,
    SyntheticEventStream,
    cold_eval_sessions,
)

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_streaming.json"

WORLD = SyntheticWorldConfig(
    n_items=500,
    n_users=250,
    n_leaf_categories=10,
    n_top_categories=4,
)
K = 10
#: Per-*window* micro-continuation (cf. per-day in bench_refresh).
TRAIN = SGNSConfig(dim=16, epochs=1, window=2, negatives=3, seed=0)
#: Reconcile contract: a nightly rebuild on top of streamed windows may
#: drift at most this far from the streamed model (mean cosine distance
#: over item vectors) — the bound the daemon's own gate enforces.
DRIFT_GATE = 0.5
#: Client threads reading through the gateway in ``mid_stream_traffic``.
READERS = 4


def build_setup(seed: int = 0):
    """Train a model and stand up the live service (shared by scenarios)."""
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
        store, MatchingServiceConfig(default_k=K, cache_ttl=None)
    )
    return dataset, model, store, service


def stream_config(seed: int = 0, **overrides) -> StreamConfig:
    defaults = dict(
        window_events=256,
        train_config=TRAIN,
        build_kwargs={"n_cells": 20, "table_coverage": 0.8, "seed": seed},
    )
    defaults.update(overrides)
    return StreamConfig(**defaults)


def hit_rate(service, sessions, k: int = K) -> float:
    """HR@k on next-item sessions: ``[..., query, label]``."""
    hits = 0
    for session in sessions:
        query, label = session.items[-2], session.items[-1]
        if label in set(int(i) for i in service.recommend(query, k).items):
            hits += 1
    return hits / len(sessions) if sessions else 0.0


def run_cold_item_recovery(seed: int = 0, smoke: bool = False) -> dict:
    """Stream new listings; measure cold-item HR@10 vs batch-only."""
    dataset, model, _store, service = build_setup(seed)
    # The batch-only baseline: same model, same build, never streamed.
    batch_service = MatchingService(
        ModelStore(
            build_bundle(
                model, dataset, n_cells=20, table_coverage=0.8, seed=seed
            )
        ),
        MatchingServiceConfig(default_k=K, cache_ttl=None),
    )

    stream = SyntheticEventStream(
        dataset,
        new_items_per_window=2,
        events_per_window=96,
        coclicks_per_new_item=10,
        seed=seed,
    )
    log = EventLog()
    applier = StreamApplier(
        service, log, dataset, stream_config(seed), seed=seed
    )
    n_windows = 2 if smoke else 4
    for _ in range(n_windows):
        log.extend(stream.window())
        applier.run_pending()

    sessions = cold_eval_sessions(stream, per_item=8, seed=seed)
    applied = [r for r in applier.history if r.applied]
    return {
        "windows_applied": len(applied),
        "new_items": len(stream.new_item_ids),
        "n_eval_sessions": len(sessions),
        "hr_at_10_streamed": hit_rate(service, sessions),
        "hr_at_10_batch_only": hit_rate(batch_service, sessions),
        "apply_latency_s": latency_percentiles([r.apply_s for r in applied]),
        "events_applied": int(
            service.metrics.counter("stream_events_applied")
        ),
    }


def read_ids(dataset, new_ids, n_requests: int, seed: int) -> list[int]:
    """One pass of read ids, 8:1:1 warm / streamed new / unknown.

    Warm ids are Zipf-skewed like feed traffic; new ids are the listings
    streamed so far (a warm id until the first one lands); unknown ids
    lie outside every catalogue and fall through to popularity.
    """
    rng = np.random.default_rng(seed)
    warm = (rng.zipf(ZIPF_A, size=n_requests) - 1) % dataset.n_items
    ids = []
    for kind, item in zip(rng.choice(3, size=n_requests, p=[0.8, 0.1, 0.1]), warm):
        if kind == 1 and new_ids:
            item = new_ids[int(rng.integers(len(new_ids)))]
        elif kind == 2:
            item = dataset.n_items + 10**6 + int(rng.integers(10**6))
        ids.append(int(item))
    return ids


def run_mid_stream_traffic(seed: int = 0, smoke: bool = False) -> dict:
    """Gateway reads from ``READERS`` threads while windows apply."""
    dataset, _model, _store, service = build_setup(seed)
    stream = SyntheticEventStream(
        dataset, new_items_per_window=1, events_per_window=48, seed=seed
    )
    log = EventLog()
    n_requests = 200 if smoke else 600
    ok = errors = passes = 0
    versions: set = set()
    with GatewayThread(service, GatewayConfig(port=0)) as gateway:
        applier = StreamApplier(
            service,
            log,
            dataset,
            stream_config(seed),
            promote_gate=gateway.swap_gate,
            seed=seed,
        )

        def read(item_id: int) -> bool:
            """One ``GET /recommend``; any status but 200 is an error."""
            try:
                fetch_json(
                    "127.0.0.1",
                    gateway.port,
                    f"/recommend?item_id={item_id}&k={K}",
                )
            except (OSError, ValueError, http.client.HTTPException):
                return False
            return True

        deadline = time.time() + 180.0
        with (
            applier.start(0.05, event_source=stream),
            ThreadPoolExecutor(READERS) as pool,
        ):
            while True:
                ids = read_ids(
                    dataset, stream.new_item_ids, n_requests, seed + passes
                )
                served = sum(pool.map(read, ids))
                passes += 1
                ok += served
                errors += len(ids) - served
                versions.add(int(service.store.version))
                if applier.windows_applied >= 2 or time.time() > deadline:
                    break
        windows = applier.windows_applied
    return {
        "load_passes": passes,
        "ok": ok,
        "errors": errors,
        "windows_applied": windows,
        "store_versions_seen": sorted(versions),
        "final_version": int(service.store.version),
        "new_items_listed": len(stream.new_item_ids),
    }


def run_reconcile(seed: int = 0, smoke: bool = False) -> dict:
    """Streamed windows, then a nightly promote, then another window."""
    dataset, _model, store, service = build_setup(seed)
    # Built before the stream starts, over the base catalogue only, as
    # `sisg serve --refresh-every … --stream-every …` builds it.
    daemon = RefreshDaemon(
        service,
        bootstrap_day_source(dataset, seed=seed + 1),
        RefreshConfig(
            interval=0.05,
            jitter=0.0,
            train_config=TRAIN,
            drift_threshold=DRIFT_GATE,
            build_kwargs={"n_cells": 20, "table_coverage": 0.8, "seed": seed},
        ),
    )
    stream = SyntheticEventStream(
        dataset, new_items_per_window=1, events_per_window=64, seed=seed
    )
    log = EventLog()
    applier = StreamApplier(
        service, log, dataset, stream_config(seed), seed=seed
    )
    for _ in range(1 if smoke else 2):
        log.extend(stream.window())
        applier.run_pending()
    streamed_version = int(store.version)
    streamed = list(stream.new_item_ids)

    nightly = daemon.run_once()
    survivors = [
        item for item in streamed
        if service.knows_item(item) and service.recommend(item, K).tier != "popularity"
    ]

    log.extend(stream.window())
    post = applier.run_pending()
    return {
        "streamed_version": streamed_version,
        "streamed_listings": len(streamed),
        "listings_served_after_nightly": len(survivors),
        "nightly_promoted": bool(nightly.promoted),
        "nightly_drift": nightly.drift,
        "drift_gate": DRIFT_GATE,
        "post_nightly_windows_applied": sum(1 for r in post if r.applied),
        "final_version": int(store.version),
    }


def run_sharded_incremental(seed: int = 0, smoke: bool = False) -> dict:
    """Touched-only shard rebuilds; hot-skew incremental moves."""
    world = SyntheticWorld(WORLD, seed=seed)
    dataset = world.generate_dataset(n_sessions=800 if smoke else 1500)
    model = SISG.sisg_f_u(
        dim=16, epochs=1, window=2, negatives=3, seed=seed
    ).fit(dataset).model
    partition = hbgp_partition(dataset, HBGPConfig(n_partitions=2))

    def fresh_stack():
        store = ShardedModelStore.build(
            model, dataset, partition,
            n_cells=20, table_coverage=0.8, seed=seed,
        )
        service = ShardedMatchingService(
            store, MatchingServiceConfig(default_k=K, cache_ttl=None)
        )
        return store, service

    # Part A — a window whose clicks all live on shard 0 must leave
    # shard 1's generation untouched (rebalancing disabled so the skew
    # cannot legitimately widen the touched set).
    store, service = fresh_stack()
    log = EventLog()
    applier = StreamApplier(
        service, log, dataset, stream_config(seed), seed=seed
    )
    shard0 = np.flatnonzero(np.asarray(store.item_partition) == 0)[:6]
    log.extend([ClickEvent(1, int(item)) for item in shard0])
    (touched,) = applier.run_pending()
    versions_after_touch = [int(v) for v in store.versions]

    # Part B — hammer two shard-0 items; the rebalancer must re-route
    # them as individual moves and rebuild both endpoint shards.
    store, service = fresh_stack()
    log = EventLog()
    applier = StreamApplier(
        service,
        log,
        dataset,
        stream_config(seed, rebalance_ratio=1.2, max_moves=4),
        seed=seed,
    )
    hot = np.flatnonzero(np.asarray(store.item_partition) == 0)[:2]
    events = []
    for _ in range(40):
        events.extend(ClickEvent(2, int(item)) for item in hot)
    log.extend(events)
    (moved,) = applier.run_pending()
    final_versions = [int(v) for v in store.versions]
    moves_counter = int(service.metrics.counter("stream_moves"))
    return {
        "touched_window_applied": bool(touched.applied),
        "versions_after_touched_window": versions_after_touch,
        "move_window_applied": bool(moved.applied),
        "moves": [[int(x) for x in m] for m in moved.moves],
        "n_moves": len(moved.moves),
        "versions_after_moves": final_versions,
        "stream_moves_counter": moves_counter,
    }


def run(seed: int = 0, smoke: bool = False) -> dict:
    return {
        "cold_item_recovery": run_cold_item_recovery(seed, smoke),
        "mid_stream_traffic": run_mid_stream_traffic(seed + 1, smoke),
        "reconcile": run_reconcile(seed + 2, smoke),
        "sharded_incremental": run_sharded_incremental(seed + 3, smoke),
    }


def check_report(report: dict) -> None:
    """The streaming contract asserted by pytest and main() alike."""
    cold = report["cold_item_recovery"]
    assert cold["hr_at_10_batch_only"] == 0.0, (
        "a batch-only service cannot rank an unseen listing"
    )
    assert cold["hr_at_10_streamed"] > cold["hr_at_10_batch_only"], (
        "streaming must beat batch-only on between-refresh cold items"
    )
    assert cold["windows_applied"] >= 2
    assert cold["apply_latency_s"]["p95"] > 0.0

    traffic = report["mid_stream_traffic"]
    assert traffic["errors"] == 0, "mid-stream traffic must not error"
    assert traffic["ok"] > 0
    assert traffic["windows_applied"] >= 2, (
        "at least two windows must land while traffic flows"
    )

    reconcile = report["reconcile"]
    assert reconcile["nightly_promoted"], "the nightly refresh must promote"
    assert reconcile["nightly_drift"] is not None
    assert reconcile["nightly_drift"] <= reconcile["drift_gate"], (
        "the nightly's drift from the streamed model escaped the gate"
    )
    assert reconcile["streamed_listings"] >= 1
    assert (
        reconcile["listings_served_after_nightly"] == reconcile["streamed_listings"]
    ), "every streamed listing must survive the nightly"
    assert reconcile["post_nightly_windows_applied"] >= 1, (
        "a window appended after the nightly must apply"
    )

    sharded = report["sharded_incremental"]
    assert sharded["touched_window_applied"] and sharded["move_window_applied"]
    assert sharded["versions_after_touched_window"] == [1, 0], (
        "a window touching one shard must rebuild only that shard"
    )
    assert sharded["n_moves"] >= 1, "hot skew must trigger incremental moves"
    assert sharded["versions_after_moves"] == [1, 1], (
        "a move must rebuild both endpoint shards"
    )


def test_streaming_report():
    report = run(seed=0, smoke=True)
    check_report(report)
    print("\nExtension — streaming ingest report (JSON)")
    print(json.dumps(report, indent=2, sort_keys=True))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer windows/requests; asserts the contract, skips the report file",
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
