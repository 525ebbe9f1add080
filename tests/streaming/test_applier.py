"""Tests for the stream applier: grow, gate, promote, reconcile."""

import copy
import threading
import time

import numpy as np
import pytest

from repro.core import item_token
from repro.core.sgns import SGNSConfig
from repro.core.vocab import TokenKind
from repro.serving import build_bundle
from repro.serving import refresh as refresh_module
from repro.streaming import ClickEvent, EventLog, SyntheticEventStream


def drain(applier):
    reports = applier.run_pending()
    assert reports, "expected at least one window"
    return reports


class TestGrowAndServe:
    def test_new_listing_becomes_servable(self, live, make_applier):
        train, store, service = live
        stream = SyntheticEventStream(train, new_items_per_window=2, seed=0)
        log = EventLog()
        applier = make_applier(service, train, log=log)
        log.extend(stream.window())
        reports = drain(applier)
        assert all(r.applied and not r.quarantined for r in reports)
        assert store.version > 0  # a new generation was promoted
        for item_id in stream.new_item_ids:
            result = service.recommend(item_id, 5)
            assert result.tier != "popularity"
            assert item_id >= train.n_items  # really was outside the catalogue
        assert applier.catalogue_size == train.n_items + len(stream.new_item_ids)

    def test_vocabulary_grew_online(self, live, make_applier):
        train, _store, service = live
        stream = SyntheticEventStream(train, new_items_per_window=1, seed=1)
        log = EventLog()
        applier = make_applier(service, train, log=log)
        before = len(applier.model.vocab)
        log.extend(stream.window())
        drain(applier)
        vocab = applier.model.vocab
        assert len(vocab) > before
        for item_id in stream.new_item_ids:
            token_id = vocab.get_id(item_token(item_id))
            assert token_id is not None
            assert vocab.kind_of(token_id) == TokenKind.ITEM

    def test_window_trains_in_train_config_dtype(
        self, live, make_applier, fit_dtypes
    ):
        """The applier hands its ``train_config`` to the warm start, whose
        SGD then runs on float32 matrices when the config says float32."""
        train, _store, service = live
        stream = SyntheticEventStream(train, new_items_per_window=1, seed=3)
        log = EventLog()
        applier = make_applier(
            service,
            train,
            log=log,
            train_config=SGNSConfig(
                dim=12, epochs=1, window=2, negatives=2, seed=0, dtype="float32"
            ),
        )
        log.extend(stream.window())
        assert all(r.applied for r in drain(applier))
        assert fit_dtypes and set(fit_dtypes) == {("float32", "float32")}

    def test_window_counters_and_histogram(self, live, make_applier):
        train, _store, service = live
        stream = SyntheticEventStream(train, new_items_per_window=1, seed=2)
        log = EventLog()
        applier = make_applier(service, train, log=log)
        log.extend(stream.window())
        (report,) = drain(applier)
        assert set(report.phase_seconds) == {"train", "build", "promote"}
        metrics = service.metrics
        assert metrics.counter("stream_windows_applied") == 1
        assert metrics.counter("stream_new_items") == len(stream.new_item_ids)
        assert metrics.gauge("stream_lag_events") == 0.0
        assert metrics.gauge("stream_last_drift") is not None


class TestIdempotence:
    def test_replayed_window_is_not_double_applied(self, live, make_applier):
        """At-least-once delivery: a lost commit must not re-apply deltas."""
        train, store, service = live
        stream = SyntheticEventStream(train, new_items_per_window=1, seed=3)
        log = EventLog()
        applier = make_applier(service, train, log=log)
        log.extend(stream.window())
        first = drain(applier)
        assert all(r.applied for r in first)
        version = store.version
        model = applier.model
        vectors = applier.model.w_in.copy()
        size = applier.catalogue_size

        # Simulate the crash-between-apply-and-commit: rewind the cursor
        # so the exact same [start, end) windows come back.
        log.reset(applier._config.cursor, 0)
        replayed = drain(applier)
        assert all(r.duplicate and not r.applied for r in replayed)
        assert [r.window_id for r in replayed] == [r.window_id for r in first]
        assert store.version == version  # no new generation
        assert applier.model is model  # not even retrained
        np.testing.assert_array_equal(applier.model.w_in, vectors)
        assert applier.catalogue_size == size
        assert service.metrics.counter("stream_duplicate_windows") == len(
            replayed
        )


class TestQuarantine:
    def test_drift_gate_quarantines_but_advances(self, live, make_applier):
        train, store, service = live
        stream = SyntheticEventStream(train, new_items_per_window=1, seed=4)
        log = EventLog()
        applier = make_applier(service, train, log=log, drift_threshold=1e-12)
        log.extend(stream.window())
        reports = drain(applier)
        assert all(r.quarantined and not r.applied for r in reports)
        assert all("drift" in r.error for r in reports)
        assert store.version == 0  # nothing promoted
        assert applier.catalogue_size == train.n_items  # catalogue unpoisoned
        assert log.lag(applier._config.cursor) == 0  # but the stream moved on
        assert service.metrics.counter("stream_quarantined_windows") >= 1
        assert "drift" in service.metrics.info("stream_last_error")

    def test_undescribed_new_item_quarantines(self, live, make_applier):
        train, store, service = live
        log = EventLog()
        applier = make_applier(service, train, log=log)
        log.extend([ClickEvent(0, train.n_items + 5)])  # no si_values
        (report,) = drain(applier)
        assert report.quarantined
        assert "side information" in report.error
        assert store.version == 0
        assert log.lag(applier._config.cursor) == 0

    def test_quarantine_never_raises_out_of_apply_next(self, live, make_applier):
        train, _store, service = live
        log = EventLog()
        applier = make_applier(service, train, log=log)
        log.extend([ClickEvent(0, 10**9)])  # wildly non-contiguous id
        (report,) = drain(applier)
        assert report.quarantined
        assert applier.apply_next() is None  # drained, not wedged


class TestReconcile:
    def test_raw_swap_is_the_next_windows_base(
        self, live, make_applier, monkeypatch
    ):
        """A flip the applier did not make is simply the next window's
        base: its model is the warm start, and nothing is reset or dropped."""
        train, store, service = live
        stream = SyntheticEventStream(train, new_items_per_window=1, seed=5)
        log = EventLog()
        applier = make_applier(service, train, log=log)
        log.extend(stream.window())
        drain(applier)
        catalogue = applier.dataset
        assert catalogue.n_items > train.n_items
        assert catalogue.n_sessions > train.n_sessions

        swapped = build_bundle(
            copy.deepcopy(applier.model), catalogue, n_cells=12, table_coverage=0.8,
            seed=9,
        )
        store.swap(swapped)
        assert applier.model is swapped.model
        assert applier.apply_next() is None  # nothing pending, nothing to undo
        assert log.cursors()[applier._config.cursor]["resets"] == 0
        assert applier.dataset is catalogue

        warm_starts = []
        update = refresh_module.incremental_update

        def spy(previous, *args, **kwargs):
            warm_starts.append(previous)
            return update(previous, *args, **kwargs)

        monkeypatch.setattr(refresh_module, "incremental_update", spy)
        log.extend(stream.window())
        reports = drain(applier)
        assert all(r.applied for r in reports)
        assert warm_starts[0] is swapped.model
        assert applier.dataset.n_sessions == catalogue.n_sessions + sum(
            r.n_sessions for r in reports
        )
        for item_id in stream.new_item_ids:
            assert service.recommend(item_id, 5).tier != "popularity"

    def test_staleness_gauge_resets_on_apply(self, live, make_applier):
        train, _store, service = live
        log = EventLog()
        applier = make_applier(service, train, log=log)
        time.sleep(0.05)
        before = service.metrics.gauge("stream_staleness_s")
        assert before >= 0.05
        log.extend([ClickEvent(0, 0), ClickEvent(0, 1), ClickEvent(0, 2)])
        drain(applier)
        after = service.metrics.gauge("stream_staleness_s")
        assert after < before


class TestSharded:
    def shard_items(self, store, shard):
        return np.flatnonzero(np.asarray(store.item_partition) == shard)

    def test_only_touched_shards_rebuild(self, sharded_live, make_applier):
        train, store, service = sharded_live
        log = EventLog()
        applier = make_applier(service, train, log=log)
        items = self.shard_items(store, 0)[:6]
        log.extend([ClickEvent(1, int(item)) for item in items])
        (report,) = drain(applier)
        assert report.applied
        assert store.versions == [1, 0]  # shard 1 untouched

    def test_window_item_ids_match_the_per_event_loops(
        self, sharded_live, make_applier
    ):
        """One item-id array per window gives the click counts and the
        touched-shard set the per-event loops gave (kept here as the
        reference)."""
        train, store, service = sharded_live
        stream = SyntheticEventStream(train, new_items_per_window=2, seed=8)
        log = EventLog()
        applier = make_applier(service, train, log=log)
        reference = np.zeros(train.n_items, dtype=np.int64)
        for _ in range(3):
            events = stream.window()
            log.extend(events)
            assert all(r.applied for r in drain(applier))
            grown = np.zeros(applier.catalogue_size, dtype=np.int64)
            grown[: len(reference)] = reference
            for event in events:
                grown[event.item_id] += 1
            reference = grown
        np.testing.assert_array_equal(applier._stream_clicks, reference)

        live = np.asarray(store.item_partition)
        rng = np.random.default_rng(0)
        for n_new in (0, 2):
            assignment = np.concatenate([live, np.ones(n_new, dtype=np.int64)])
            clicked = rng.choice(np.flatnonzero(live == 0), size=5)
            expected = {int(assignment[item]) for item in clicked}
            expected.update(int(shard) for shard in assignment[len(live):])
            assert applier._touched_shards(clicked, assignment, []) == expected

    def test_new_items_land_on_lightest_shard(self, sharded_live, make_applier):
        train, store, service = sharded_live
        stream = SyntheticEventStream(train, new_items_per_window=2, seed=6)
        log = EventLog()
        applier = make_applier(service, train, log=log)
        counts_before = np.bincount(
            np.asarray(store.item_partition), minlength=2
        )
        log.extend(stream.window())
        reports = drain(applier)
        assert any(r.applied for r in reports)
        partition = np.asarray(store.item_partition)
        assert len(partition) == train.n_items + len(stream.new_item_ids)
        lightest = int(np.argmin(counts_before))
        assert int(partition[stream.new_item_ids[0]]) == lightest
        for item_id in stream.new_item_ids:
            assert service.recommend(item_id, 5).tier != "popularity"

    def test_hot_items_move_incrementally(self, sharded_live, make_applier):
        train, store, service = sharded_live
        log = EventLog()
        applier = make_applier(
            service, train, log=log, rebalance_ratio=1.2, max_moves=4
        )
        hot = self.shard_items(store, 0)[:2]
        events = []
        for _ in range(40):  # hammer two items of shard 0 only
            events.extend(ClickEvent(2, int(item)) for item in hot)
        log.extend(events)
        (report,) = drain(applier)
        assert report.applied
        assert report.moves, "expected at least one incremental move"
        partition = np.asarray(store.item_partition)
        for item, src, dst in report.moves:
            assert src == 0 and dst == 1
            assert int(partition[item]) == 1
            # The moved item serves from its new shard, not a stale copy.
            assert service.recommend(int(item), 5).tier != "popularity"
        # Both endpoints rebuilt: no shard serves a retired duplicate.
        assert store.versions == [1, 1]
        assert service.metrics.counter("stream_moves") == len(report.moves)

    def test_moves_capped_and_no_oscillation(self, sharded_live, make_applier):
        train, _store, service = sharded_live
        log = EventLog()
        applier = make_applier(
            service, train, log=log, rebalance_ratio=1.01, max_moves=2
        )
        items = self.shard_items(_store, 0)[:8]
        events = []
        for _ in range(10):
            events.extend(ClickEvent(3, int(item)) for item in items)
        log.extend(events)
        (report,) = drain(applier)
        assert len(report.moves) <= 2


class TestBackgroundLoop:
    def test_start_applies_from_event_source(self, live, make_applier):
        train, _store, service = live
        stream = SyntheticEventStream(
            train, new_items_per_window=1, events_per_window=24, seed=7
        )
        applier = make_applier(service, train)
        with applier.start(0.02, event_source=stream):
            assert applier.wait_for_windows(2, timeout=60.0)
        assert applier.windows_applied >= 2
        assert stream.new_item_ids
        assert service.recommend(stream.new_item_ids[0], 5).tier != "popularity"

    def test_wait_for_windows_times_out(self, live, make_applier):
        train, _store, service = live
        applier = make_applier(service, train)
        with applier.start(0.02):  # no events ever arrive
            assert not applier.wait_for_windows(1, timeout=0.1)

    def test_restart_after_a_timed_out_stop_runs_one_loop(self, live, make_applier):
        """Regression: ``stop(timeout)`` forgot a thread whose tick outlived
        the join, so the next ``start()`` ran a second loop beside it."""
        train, _store, service = live
        entered, release = threading.Event(), threading.Event()
        tickers: list[int] = []

        def blocking_source(tick):
            tickers.append(threading.get_ident())
            entered.set()
            if tick == 0:
                release.wait(30.0)
            return []

        applier = make_applier(service, train)
        applier.start(0.01, event_source=blocking_source)
        assert entered.wait(30.0)
        applier.stop(timeout=0.05)  # tick 0 is still blocked: the join times out
        applier.start(0.01, event_source=blocking_source)
        release.set()
        deadline = time.monotonic() + 30.0
        while len(tickers) < 6 and time.monotonic() < deadline:
            time.sleep(0.01)
        applier.stop()
        assert len(tickers) >= 6
        assert len(set(tickers)) == 1  # one loop thread ran every tick


class TestConfigValidation:
    def test_bad_rebalance_ratio_rejected(self, live, make_applier):
        train, _store, service = live
        with pytest.raises(ValueError):
            make_applier(service, train, rebalance_ratio=0.5)

    def test_bad_window_events_rejected(self, live, make_applier):
        train, _store, service = live
        with pytest.raises(ValueError):
            make_applier(service, train, window_events=0)
