"""HBGP-sharded serving: partition stores, scatter-gather, per-shard swaps.

Walks the sharded deployment story at laptop scale:

1. train embeddings, partition the item space with HBGP (Sec. III-B)
   and hand :class:`MatchingService` a ``ShardedModelStore`` — one
   double-buffered store per partition, scatter-gathered;
2. answer one request per routing path — local table hit on the owning
   shard, cross-shard ANN scatter, cold item, cold user, popularity
   merge — and show N shards answer exactly like the same class over a
   single ``ModelStore`` (the one-shard case);
3. refresh ONE shard while a background thread keeps querying: the
   other shards' generations (and cached answers) survive untouched;
4. run synthetic traffic through the same service and print its
   per-shard gather metrics and the serving-side HR@10.

    python examples/sharded_serving.py
"""

import threading

import numpy as np

from repro import SyntheticWorld, SyntheticWorldConfig
from repro.core.sisg import SISG
from repro.data.schema import BehaviorDataset
from repro.graph.hbgp import HBGPConfig, hbgp_partition
from repro.serving import (
    MatchingService,
    MatchingServiceConfig,
    MatchRequest,
    ModelStore,
    ShardedModelStore,
    build_bundle,
    evaluate_service_hitrate,
    synth_requests,
)
from repro.utils.logger import configure_basic_logging

N_SHARDS = 3
K = 10


def main() -> None:
    configure_basic_logging()
    world = SyntheticWorld(
        SyntheticWorldConfig(
            n_items=600, n_users=250, n_top_categories=4, n_leaf_categories=12
        ),
        seed=5,
    )
    users = world.generate_users()
    full = BehaviorDataset(
        world.items, users, world.generate_sessions(users, 2000), validate=False
    )
    dataset, test = full.split_last_item()

    sisg = SISG.sisg_f_u(dim=24, epochs=2, window=3, negatives=5, seed=1).fit(
        dataset
    )
    model = sisg.model

    # ------------------------------------------- partition + sharded store
    partition = hbgp_partition(dataset, HBGPConfig(n_partitions=N_SHARDS))
    store = ShardedModelStore.build(
        model, dataset, partition, n_cells=1, table_coverage=1.0, seed=0
    )
    service = MatchingService(store)
    sizes = [int(np.sum(store.item_partition == s)) for s in range(N_SHARDS)]
    print(f"— {N_SHARDS} HBGP shards, items per shard: {sizes} —")

    # Reference: the same class over one store, same build settings.
    unsharded = MatchingService(
        ModelStore(build_bundle(model, dataset, n_cells=1, table_coverage=1.0, seed=0)),
        MatchingServiceConfig(),
    )

    print("\n— one request per routing path (sharded == unsharded?) —")
    warm = int(store.current(0).table.item_ids[0])
    probes = [
        ("warm, owning-shard table hit", warm),
        ("cold item (SI only)",
         MatchRequest(si_values=dict(dataset.items[3].si_values))),
        ("cold user (F, 25-30)", MatchRequest(gender="F", age_bucket="25-30")),
        ("unknown id (popularity)", MatchRequest(item_id=10**9)),
    ]
    for label, request in probes:
        sharded_result = service.recommend(request, K)
        flat_result = unsharded.recommend(request, K)
        same = np.array_equal(sharded_result.items, flat_result.items)
        print(f"  {label:30s} -> tier={sharded_result.tier:<10s}"
              f" identical={same} {sharded_result.items[:5].tolist()}")

    # ------------------------------- refresh one shard under concurrent fire
    stop = threading.Event()
    failures = []

    def hammer() -> None:
        while not stop.is_set():
            try:
                service.recommend(warm, K)
            except Exception as exc:  # pragma: no cover - the demo's point
                failures.append(exc)

    thread = threading.Thread(target=hammer)
    thread.start()
    store.refresh_shard(0, model, dataset, n_cells=1, table_coverage=1.0, seed=1)
    stop.set()
    thread.join()
    print(f"\n— shard 0 refreshed under load: versions {store.versions},"
          f" {len(failures)} failed requests —")

    # ------------------------- per-shard gather metrics + serving-side HR@K
    for request in synth_requests(dataset, 300, seed=3):
        service.recommend(request, K)
    hr = evaluate_service_hitrate(service, test, ks=(10,), name="sharded")
    print(f"\n— {N_SHARDS} shards in one process,"
          f" serving HR@10 = {hr.hit_rates[10]:.3f} —")
    for shard, metrics in enumerate(service.shard_metrics):
        snap = metrics.snapshot()
        gathers = snap["counters"].get("gathers", 0)
        table_hits = snap["counters"].get("table_hits", 0)
        gather_p50_us = snap["tiers"].get("gather", {}).get("p50", 0.0) * 1e6
        print(f"  shard {shard}: gathers={gathers:5d}"
              f" gather p50={gather_p50_us:7.1f} us"
              f" local table hits={table_hits:5d}")


if __name__ == "__main__":
    main()
