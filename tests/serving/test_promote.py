"""The flip protocol, tested once, over both store kinds.

:func:`repro.serving.sharding.promote` is the only place a refresh cycle
or a stream window touches a live store, so its ordering rules are
checked here rather than once per caller: swap every shard, then
install the map, all of it inside one gate call.  The build half is the
store's ``build_generation``; what is checked of it here is the
consequence — a build that fails never reaches ``promote``.
"""


import numpy as np
import pytest

from repro.core.sgns import SGNSConfig
from repro.serving import (
    MatchingService,
    ModelStore,
    RefreshConfig,
    RefreshDaemon,
    ShardedModelStore,
    bootstrap_day_source,
    build_bundle,
    build_shard_bundle,
)
from repro.serving import sharding as sharding_module
from repro.serving import store as store_module
from repro.serving.sharding import promote, serving_target
from repro.streaming import ClickEvent, EventLog, StreamApplier, StreamConfig

TRAIN = SGNSConfig(dim=12, epochs=1, window=2, negatives=2, seed=5)
BUILD = {"n_cells": 4, "table_coverage": 0.8, "seed": 3}


@pytest.fixture(scope="module")
def shard_bundles(fitted_sisg, tiny_split):
    """Two shard bundles (items split by parity) + their partition map."""
    train, _ = tiny_split
    assignment = np.arange(train.n_items) % 2
    bundles = [
        build_shard_bundle(
            fitted_sisg.model, train, np.flatnonzero(assignment == shard), **BUILD
        )
        for shard in (0, 1)
    ]
    return bundles, assignment


@pytest.fixture(params=["one_store", "two_shards"])
def store(request, serving_bundle, shard_bundles):
    if request.param == "one_store":
        return ModelStore(serving_bundle)
    return ShardedModelStore(*shard_bundles)


@pytest.fixture(params=["bare_store", "through_service"])
def target(request, store):
    """What callers hand to ``promote``: the store or a service over it."""
    return store if request.param == "bare_store" else MatchingService(store)


def next_generation(store) -> dict:
    """``{shard: bundle}`` re-promoting every live bundle."""
    return dict(enumerate(store.snapshot()))


class TestPromote:
    def test_returns_the_stores_version(self, target):
        store, _ = serving_target(target)
        versions = promote(target, next_generation(store))
        assert versions == store.version
        assert versions in (1, [1, 1])

    def test_flip_runs_inside_the_gate_exactly_once(self, target):
        store, _ = serving_target(target)
        before = store.version
        seen = []

        def gate(flip):
            seen.append(("enter", store.version))
            result = flip()
            seen.append(("exit", store.version))
            return result

        versions = promote(target, next_generation(store), gate=gate)
        assert seen == [("enter", before), ("exit", versions)]
        assert versions != before

    def test_partition_map_installed_after_the_swaps(self, shard_bundles):
        bundles, assignment = shard_bundles
        store = ShardedModelStore(bundles, assignment)
        order = []
        real_swap, real_update = store.swap_shard, store.update_partition
        store.swap_shard = lambda *a: (order.append("swap"), real_swap(*a))[1]
        store.update_partition = lambda *a, **kw: (
            order.append("map"),
            real_update(*a, **kw),
        )[1]
        extended = np.concatenate([assignment, [1]])
        promote(store, next_generation(store), extended)
        assert order == ["swap", "swap", "map"]
        assert store.shard_of(len(extended) - 1) == 1
        # Moves need the explicit opt-in, exactly as on the store itself.
        moved = extended.copy()
        moved[0] = 1 - moved[0]
        with pytest.raises(ValueError):
            promote(store, {}, moved)
        promote(store, {}, moved, allow_moves=True)
        assert store.shard_of(0) == moved[0]

    def test_swaps_count_on_the_service_metrics(self, store):
        service = MatchingService(store)
        promote(service, next_generation(store))
        assert service.metrics.counter("swaps") == len(store.snapshot())


class TestBuildFailureNeverReachesTheFlip:
    """Both callers have every bundle built before calling ``promote``."""

    @staticmethod
    def fail_last_build(monkeypatch, n_builds: int) -> None:
        """Make the ``n_builds``-th build of the next promotion explode.

        Patched where the stores look the builders up: the one-shard
        store builds through ``store.build_bundle``, the sharded one
        through ``sharding.build_shard_bundle``.
        """
        calls = {"n": 0}

        def flaky(real):
            def build(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] == n_builds:
                    raise RuntimeError("build exploded")
                return real(*args, **kwargs)

            return build

        for module, name in (
            (store_module, "build_bundle"),
            (sharding_module, "build_shard_bundle"),
        ):
            monkeypatch.setattr(module, name, flaky(getattr(module, name)))

    def test_refresh_daemon(self, target, tiny_split, monkeypatch):
        train, _ = tiny_split
        store, _ = serving_target(target)
        before = store.version
        self.fail_last_build(monkeypatch, len(store.snapshot()))
        daemon = RefreshDaemon(
            target,
            bootstrap_day_source(train, seed=2),
            RefreshConfig(max_retries=0, train_config=TRAIN, build_kwargs=BUILD),
        )
        report = daemon.run_once()
        assert not report.promoted and "build exploded" in report.error
        assert store.version == before  # every shard still on the old one
        # The next cycle (the injected failure is spent) promotes them all.
        assert daemon.run_once().promoted
        assert store.version in (1, [1, 1])

    def test_stream_applier(self, target, tiny_split, monkeypatch):
        train, _ = tiny_split
        store, _ = serving_target(target)
        before = store.version
        self.fail_last_build(monkeypatch, len(store.snapshot()))
        log = EventLog()
        applier = StreamApplier(
            target, log, train,
            StreamConfig(train_config=TRAIN, build_kwargs=BUILD),
        )
        listing = ClickEvent(0, train.n_items, si_values=dict(train.items[0].si_values))
        log.extend([ClickEvent(0, item) for item in range(6)] + [listing])  # both shards
        (report,) = applier.run_pending()
        assert report.quarantined and "build exploded" in report.error
        assert report.new_items == [train.n_items]
        assert store.version == before
        # The window failed after its drift gate: none of it was committed.
        assert applier.catalogue_size == train.n_items
        assert applier.dataset.n_sessions == train.n_sessions
        log.extend([ClickEvent(1, item) for item in range(6)])
        (report,) = applier.run_pending()
        assert report.applied
        assert store.version in (1, [1, 1])


def test_one_store_serves_items_listed_after_it_was_built(fitted_sisg, tiny_split):
    """The trap: a ``ModelStore`` has no fixed-length partition map, so a
    promoted bundle's new listings are owned — and answered — at once."""
    train, _ = tiny_split
    model = fitted_sisg.model
    catalogue = np.arange(train.n_items)
    yesterday = build_shard_bundle(model, train, catalogue[: train.n_items // 2], **BUILD)
    service = MatchingService(ModelStore(yesterday))
    today = build_bundle(model, train, **BUILD)
    listed_later = int(today.index.item_ids.max())
    assert listed_later not in yesterday.index
    assert service.recommend(listed_later, 5).tier == "popularity"
    assert not service.knows_item(listed_later)
    promote(service, {0: today})
    assert service.recommend(listed_later, 5).tier in ("table", "ann")
    assert service.knows_item(listed_later)
