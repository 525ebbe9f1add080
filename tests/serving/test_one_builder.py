"""One generation builder: ``build_bundle`` is the one-shard shard build.

``build_bundle`` used to be a second copy of the index -> IVF -> table ->
popularity recipe beside ``build_shard_bundle``, and every caller picked
between them by asking which kind of store it held.  The copy is gone;
these tests pin what made deleting it safe — a ``ModelStore`` over
``build_bundle`` and a one-shard ``ShardedModelStore`` hold the same
bytes and give the same answers, at first publish, after a refresh cycle
and after a stream window, across table coverage and ANN precision.
"""

import numpy as np
import pytest

from repro.core.sgns import SGNSConfig
from repro.graph.hbgp import HBGPConfig, hbgp_partition
from repro.serving import (
    MatchingService,
    MatchingServiceConfig,
    MatchRequest,
    ModelStore,
    RefreshConfig,
    RefreshDaemon,
    ShardedModelStore,
    bootstrap_day_source,
    build_bundle,
    build_shard_bundle,
)
from repro.streaming import (
    EventLog,
    StreamApplier,
    StreamConfig,
    SyntheticEventStream,
)

K = 10
NO_CACHE = MatchingServiceConfig(default_k=K, cache_size=0)
TRAIN = SGNSConfig(dim=12, epochs=1, window=2, negatives=2, seed=5)


def request_mix(train, bundle) -> list:
    """Warm (table hits and misses), cold-item, cold-user and unknown."""
    uncovered = [int(i) for i in bundle.index.item_ids if int(i) not in bundle.table]
    return (
        [int(i) for i in bundle.table.item_ids[:6]]
        + uncovered[:6]
        + [MatchRequest(si_values=dict(train.items[i].si_values)) for i in range(4)]
        + [
            MatchRequest(gender="F", age_bucket="25-30"),
            MatchRequest(gender="M", purchase_power="high"),
            MatchRequest(item_id=10**9),
            MatchRequest(),
        ]
    )


def answers(service, requests) -> list:
    """``(ids bytes, scores bytes, tier)`` per request, from one batch."""
    return [
        (result.items.tobytes(), result.scores.tobytes(), result.tier)
        for result in service.recommend_batch(requests, K)
    ]


@pytest.mark.parametrize("precision", ["float32", "int8", "pq"])
@pytest.mark.parametrize("coverage", [1.0, 0.8, 0.2])
def test_one_shard_store_equals_build_bundle(
    fitted_sisg, tiny_split, coverage, precision
):
    train, _ = tiny_split
    model = fitted_sisg.model
    build = {
        "n_cells": 6, "table_coverage": coverage, "seed": 3,
        "ann_precision": precision,
    }
    flat = build_bundle(model, train, **build)
    store = ShardedModelStore.build(
        model, train, hbgp_partition(train, HBGPConfig(n_partitions=1)), **build
    )
    (shard,) = store.snapshot()

    np.testing.assert_array_equal(shard.index.item_ids, flat.index.item_ids)
    np.testing.assert_array_equal(shard.table.item_ids, flat.table.item_ids)
    assert shard.table._candidates.tobytes() == flat.table._candidates.tobytes()
    assert shard.table._scores.tobytes() == flat.table._scores.tobytes()
    assert shard.popular_items.tobytes() == flat.popular_items.tobytes()
    assert shard.popular_scores.tobytes() == flat.popular_scores.tobytes()

    one = MatchingService(ModelStore(flat), NO_CACHE)
    sharded = MatchingService(store, NO_CACHE)
    requests = request_mix(train, flat)
    want = answers(one, requests)
    assert {tier for _ids, _scores, tier in want} >= (
        {"table", "cold_item", "cold_user", "popularity"}
        | ({"ann"} if coverage < 1.0 else set())
    )
    assert answers(sharded, requests) == want

    # The next generation, built by each store for itself: one nightly
    # refresh cycle, then one stream window carrying new listings.
    stream = SyntheticEventStream(train, seed=9)
    events = stream.window()
    requests += stream.new_item_ids
    after = []
    for service in (one, sharded):
        daemon = RefreshDaemon(
            service,
            bootstrap_day_source(train, seed=2),
            RefreshConfig(train_config=TRAIN, build_kwargs=build),
            seed=4,
        )
        assert daemon.run_once().promoted
        refreshed = answers(service, requests)
        log = EventLog()
        applier = StreamApplier(
            service, log, train,
            StreamConfig(train_config=TRAIN, build_kwargs=build), seed=4,
        )
        log.extend(events)
        assert all(report.applied for report in applier.run_pending())
        after.append((refreshed, answers(service, requests)))
    assert after[0] == after[1]
    refreshed, streamed = after[0]
    assert refreshed[: len(want)] != want  # the refresh moved the model
    assert {tier for _i, _s, tier in streamed[-len(stream.new_item_ids):]} <= {
        "table", "ann"
    }


def test_n_cells_is_clamped_to_the_catalogue(fitted_sisg, tiny_split):
    """Regression: ``build_bundle(n_cells > n_items)`` raised ``ValueError``
    where the shard build clamped, so ``sisg serve --cells 5000`` crashed
    unsharded and worked with ``--shards 2``."""
    train, _ = tiny_split
    model = fitted_sisg.model
    n_cells = train.n_items + 1000
    flat = build_bundle(model, train, n_cells=n_cells, seed=0)
    assert flat.ann.n_cells == flat.index.n_items
    half = build_shard_bundle(
        model, train, np.arange(train.n_items // 2), n_cells=n_cells, seed=0
    )
    assert half.ann.n_cells == half.index.n_items
