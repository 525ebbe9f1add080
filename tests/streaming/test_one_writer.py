"""One writer per store: the nightly and the stream promote from the live
generation.

Both schedules read the model and the catalogue they promote from out of
the store, under its writer lock, so neither can undo the other: a
nightly keeps every listing the stream made, and a window after a
nightly builds on it.  Checked on one store and on two HBGP shards, with
the daemon built *before* the stream starts, as ``sisg serve
--refresh-every … --stream-every …`` builds it.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import item_token
from repro.core.sgns import SGNSConfig
from repro.data.schema import BehaviorDataset, ItemMeta, Session
from repro.serving import (
    RefreshConfig,
    RefreshDaemon,
    ShardedMatchingService,
    ShardedModelStore,
    bootstrap_day_source,
    build_shard_bundle,
)
from repro.streaming import EventLog, SyntheticEventStream

NIGHTLY_TRAIN = SGNSConfig(dim=12, epochs=1, window=2, negatives=2, seed=0)
NIGHTLY_BUILD = {"n_cells": 8, "table_coverage": 0.8, "seed": 2}


@pytest.fixture(params=["one_store", "two_shards"])
def stack(request):
    """(train, store, service) over one store or two HBGP shards."""
    return request.getfixturevalue(
        "live" if request.param == "one_store" else "sharded_live"
    )


def nightly(service, day_source, **config) -> RefreshDaemon:
    return RefreshDaemon(
        service,
        day_source,
        RefreshConfig(train_config=NIGHTLY_TRAIN, build_kwargs=NIGHTLY_BUILD, **config),
        seed=1,
    )


def assert_served(service, item_ids) -> None:
    """Every item is known, answered by a warm tier, and has its token in
    the model of every live shard."""
    for item_id in item_ids:
        assert service.knows_item(item_id), item_id
        assert service.recommend(item_id, 5).tier != "popularity", item_id
        for bundle in service.store.snapshot():
            assert bundle.model.vocab.get_id(item_token(item_id)) is not None


class TestNightlyKeepsTheStream:
    def test_listings_survive_and_the_stream_continues(self, stack, make_applier):
        train, _store, service = stack
        daemon = nightly(service, bootstrap_day_source(train, seed=3))
        stream = SyntheticEventStream(train, new_items_per_window=2, seed=0)
        log = EventLog()
        applier = make_applier(service, train, log=log)
        log.extend(stream.window())
        assert all(r.applied for r in applier.run_pending())
        listed = list(stream.new_item_ids)
        assert_served(service, listed)

        assert daemon.run_once().promoted
        assert_served(service, listed)

        log.extend(stream.window())
        reports = applier.run_pending()
        assert reports and all(r.applied for r in reports)
        assert len(stream.new_item_ids) > len(listed)
        assert_served(service, stream.new_item_ids)
        service.close()


class TestBothWritersAtOnce:
    def test_daemon_and_applier_threads_lose_nothing(
        self, sharded_live, make_applier
    ):
        """The ``sisg serve`` shape: two background writers, one store,
        and a reader, switching threads often."""
        train, store, service = sharded_live
        daemon = nightly(
            service, bootstrap_day_source(train, seed=4), interval=0.05, jitter=0.0
        )
        stream = SyntheticEventStream(
            train, new_items_per_window=1, events_per_window=24, seed=7
        )
        appended = []

        def source(tick):
            events = stream.window()
            appended.append(len(events))
            return events

        applier = make_applier(service, train)
        seen, done = [], threading.Event()

        def watch():
            while not done.is_set():
                seen.append(list(store.versions))
                done.wait(0.005)

        watcher = threading.Thread(target=watch)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        watcher.start()
        try:
            daemon.start()
            applier.start(0.02, event_source=source)
            assert daemon.wait_for_cycles(4, timeout=120.0)
            assert applier.wait_for_windows(6, timeout=120.0)
        finally:
            applier.stop()
            daemon.stop()
            done.set()
            watcher.join(30.0)
            sys.setswitchinterval(switch)
        assert not watcher.is_alive()
        applier.run_pending()

        assert all(report.promoted for report in daemon.history)
        assert applier.windows_applied == sum(1 for n in appended if n)
        assert all(r.applied for r in applier.history)
        assert_served(service, stream.new_item_ids)
        versions = np.array(seen + [store.versions])
        assert (np.diff(versions, axis=0) >= 0).all()
        service.close()


class TestNightlyPlacement:
    def test_new_listings_go_to_the_lightest_shard(self, stream_base):
        """Both schedules place a new listing on the shard owning the
        fewest items at that point."""
        model, train = stream_base
        assignment = (np.arange(train.n_items) % 3 == 0).astype(np.int64)
        bundles = [
            build_shard_bundle(
                model, train, np.flatnonzero(assignment == shard), **NIGHTLY_BUILD
            )
            for shard in (0, 1)
        ]
        service = ShardedMatchingService(ShardedModelStore(bundles, assignment))
        n = train.n_items
        listed = list(range(n, n + 3))
        items = train.items + [
            ItemMeta(item_id, dict(train.items[i].si_values))
            for i, item_id in enumerate(listed)
        ]
        sessions = train.sessions + [
            Session(user, [*listed, user % n, (user + 1) % n]) for user in range(20)
        ]
        day = BehaviorDataset(items, train.users, sessions)
        assert nightly(service, lambda _cycle: day).run_once().promoted

        loads = np.bincount(assignment, minlength=2)
        expected = []
        for _ in listed:
            shard = int(np.argmin(loads))
            expected.append(shard)
            loads[shard] += 1
        partition = service.store.item_partition
        assert partition[listed].tolist() == expected == [1, 1, 1]
        assert_served(service, listed)
        service.close()
