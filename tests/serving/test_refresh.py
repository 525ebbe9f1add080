"""Tests for the nightly refresh daemon: retries, breaker, drift gate."""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core.sgns import SGNSConfig
from repro.graph.hbgp import HBGPConfig, hbgp_partition
from repro.serving import (
    MatchingService,
    MatchingServiceConfig,
    RefreshConfig,
    RefreshDaemon,
    ShardedMatchingService,
    ShardedModelStore,
    bootstrap_day_source,
    failing_build_hook,
)
from repro.serving import refresh as refresh_module

#: Cheap continuation training so each cycle stays fast.
TRAIN = SGNSConfig(dim=12, epochs=1, window=2, negatives=2, seed=5)


def fast_config(**overrides) -> RefreshConfig:
    defaults = dict(
        interval=0.05,
        max_retries=2,
        backoff_base=0.01,
        backoff_cap=0.05,
        jitter=0.0,
        train_config=TRAIN,
        build_kwargs={"n_cells": 8, "table_coverage": 0.8, "seed": 3},
    )
    defaults.update(overrides)
    return RefreshConfig(**defaults)


@pytest.fixture()
def service(fresh_store):
    return MatchingService(
        fresh_store, MatchingServiceConfig(default_k=10, cache_ttl=None)
    )


@pytest.fixture()
def day_source(tiny_split):
    train, _ = tiny_split
    return bootstrap_day_source(train, seed=2)


class TestConfig:
    def test_defaults_valid(self):
        RefreshConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("interval", 0.0),
            ("max_retries", -1),
            ("backoff_base", 0.0),
            ("backoff_factor", 0.5),
            ("jitter", 1.5),
            ("failure_threshold", 0),
            ("drift_threshold", -0.1),
        ],
    )
    def test_invalid_rejected(self, field, value):
        config = RefreshConfig()
        setattr(config, field, value)
        with pytest.raises(ValueError):
            config.validate()


class TestSingleCycle:
    def test_cycle_promotes_new_generation(self, service, day_source):
        daemon = RefreshDaemon(service, day_source, fast_config())
        assert service.store.version == 0
        report = daemon.run_once()
        assert report.promoted
        assert report.attempts == 1
        assert report.versions == 1
        assert service.store.version == 1
        assert set(report.phase_seconds) == {
            "ingest", "train", "build", "promote"
        }
        # The expensive work happens outside the swap.
        assert report.phase_seconds["promote"] < report.phase_seconds["build"]

    def test_served_results_come_from_new_generation(self, service, day_source):
        daemon = RefreshDaemon(service, day_source, fast_config())
        item = int(service.store.current().table.item_ids[0])
        assert service.recommend(item).version == 0
        daemon.run_once()
        assert service.recommend(item).version == 1

    def test_metrics_surface_in_service_snapshot(self, service, day_source):
        daemon = RefreshDaemon(service, day_source, fast_config())
        daemon.run_once()
        snap = service.snapshot()
        assert snap["counters"]["refresh_cycles"] == 1
        assert snap["counters"]["refresh_promotions"] == 1
        for phase in ("ingest", "train", "build", "promote", "cycle"):
            assert snap["tiers"][f"refresh_{phase}"]["count"] == 1.0
        assert snap["gauges"]["refresh_consecutive_failures"] == 0.0
        assert snap["gauges"]["refresh_breaker_open"] == 0.0
        assert snap["gauges"]["refresh_generation_age_s"] >= 0.0
        assert snap["info"]["refresh_last_error"] is None

    def test_warm_start_trains_in_train_config_dtype(
        self, service, day_source, fit_dtypes
    ):
        """The daemon hands its ``train_config`` to the warm start, whose
        SGD then runs on float32 matrices when the config says float32."""
        config = fast_config(train_config=replace(TRAIN, dtype="float32"))
        assert RefreshDaemon(service, day_source, config).run_once().promoted
        assert fit_dtypes == [("float32", "float32")]

    def test_status_shape(self, service, day_source):
        daemon = RefreshDaemon(service, day_source, fast_config())
        daemon.run_once()
        status = daemon.status()
        assert status["cycles"] == 1
        assert status["store_version"] == 1
        assert not status["breaker_open"]
        assert status["history"][0]["promoted"]


class TestFailureIsolation:
    def test_injected_failure_recovers_on_retry(self, service, day_source):
        hook = failing_build_hook({"build": 1})
        daemon = RefreshDaemon(
            service, day_source, fast_config(), fault_hook=hook
        )
        report = daemon.run_once()
        assert report.promoted
        assert report.attempts == 2
        assert service.store.version == 1
        assert service.metrics.counter("refresh_retries") == 1

    def test_exhausted_retries_keep_old_generation(self, service, day_source):
        hook = failing_build_hook({"build": 99})
        daemon = RefreshDaemon(
            service, day_source, fast_config(max_retries=1), fault_hook=hook
        )
        item = int(service.store.current().table.item_ids[0])
        report = daemon.run_once()
        assert not report.promoted
        assert report.attempts == 2
        assert "injected build failure" in report.error
        # The previous bundle is untouched and still serving.
        assert service.store.version == 0
        assert service.recommend(item).version == 0
        assert service.snapshot()["info"]["refresh_last_error"] == report.error

    def test_ingest_failures_also_isolated(self, service, day_source):
        hook = failing_build_hook({"ingest": 1})
        daemon = RefreshDaemon(
            service, day_source, fast_config(), fault_hook=hook
        )
        report = daemon.run_once()
        assert report.promoted
        assert report.attempts == 2

    def test_circuit_breaker_opens_and_resets(self, service, day_source):
        hook = failing_build_hook({"build": 2})
        daemon = RefreshDaemon(
            service,
            day_source,
            fast_config(max_retries=0, failure_threshold=2),
            fault_hook=hook,
        )
        assert not daemon.run_once().promoted
        assert not daemon.breaker_open
        assert not daemon.run_once().promoted
        assert daemon.breaker_open
        # While open, cycles are skipped without touching the pipeline.
        skipped = daemon.run_once()
        assert skipped.aborted_by == "circuit_breaker"
        assert skipped.attempts == 0
        assert service.store.version == 0
        assert service.snapshot()["gauges"]["refresh_breaker_open"] == 1.0
        # Reset: the hook has burned through its injected failures by now.
        daemon.reset_breaker()
        assert daemon.run_once().promoted
        assert service.store.version == 1


class TestDriftGate:
    def test_excessive_drift_aborts_promotion(self, service, day_source):
        daemon = RefreshDaemon(
            service, day_source, fast_config(drift_threshold=1e-12)
        )
        report = daemon.run_once()
        assert not report.promoted
        assert report.aborted_by == "drift_gate"
        assert report.attempts == 1  # deterministic: no point retrying
        assert report.drift > 1e-12
        assert service.store.version == 0
        assert service.metrics.counter("refresh_drift_aborts") == 1

    def test_permissive_threshold_promotes(self, service, day_source):
        daemon = RefreshDaemon(
            service, day_source, fast_config(drift_threshold=10.0)
        )
        report = daemon.run_once()
        assert report.promoted
        assert 0.0 <= report.drift <= 10.0


class TestBackgroundThread:
    def test_daemon_refreshes_on_interval(self, service, day_source):
        daemon = RefreshDaemon(service, day_source, fast_config(interval=0.01))
        with daemon:
            assert daemon.wait_for_cycles(2, timeout=60.0)
        assert service.store.version >= 2
        assert not daemon.status()["running"]

    @pytest.mark.parametrize("step", [3600.0, -3600.0])
    def test_wait_for_cycles_ignores_wall_clock_steps(
        self, service, day_source, monkeypatch, step
    ):
        """Regression: the deadline was kept in ``time.time()`` readings,
        so an NTP step mid-wait returned early (forward) or waited an
        hour past the timeout (backward)."""
        daemon = RefreshDaemon(service, day_source, fast_config())  # never started
        real = time.time
        readings = {"n": 0}

        def stepping() -> float:
            readings["n"] += 1
            return real() + (step if readings["n"] > 1 else 0.0)

        monkeypatch.setattr(refresh_module.time, "time", stepping)
        outcome = {}

        def wait() -> None:
            start = time.monotonic()
            outcome["done"] = daemon.wait_for_cycles(1, timeout=0.3)
            outcome["elapsed"] = time.monotonic() - start

        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        waiter.join(10.0)
        assert not waiter.is_alive()
        assert outcome["done"] is False
        assert 0.25 <= outcome["elapsed"] < 5.0

    def test_start_is_idempotent(self, service, day_source):
        daemon = RefreshDaemon(service, day_source, fast_config(interval=30.0))
        daemon.start()
        daemon.start()
        daemon.stop()


class TestShardedRefresh:
    """(A shard build that fails mid-cycle leaves every shard on the old
    generation: ``test_promote.py``, once for both store kinds.)"""

    @pytest.fixture()
    def sharded_service(self, fitted_sisg, tiny_split):
        train, _ = tiny_split
        partition = hbgp_partition(train, HBGPConfig(n_partitions=2))
        store = ShardedModelStore.build(
            fitted_sisg.model, train, partition,
            n_cells=8, table_coverage=0.8, seed=0,
        )
        return ShardedMatchingService(
            store, MatchingServiceConfig(default_k=10, cache_ttl=None)
        )

    def test_cycle_promotes_every_shard(self, sharded_service, day_source):
        daemon = RefreshDaemon(sharded_service, day_source, fast_config())
        report = daemon.run_once()
        assert report.promoted
        assert report.versions == [1, 1]
        assert sharded_service.store.versions == [1, 1]


class TestHelpers:
    def test_bootstrap_day_source_reshuffles_sessions(self, tiny_split):
        train, _ = tiny_split
        source = bootstrap_day_source(train, seed=0)
        day1, day2 = source(1), source(2)
        assert day1.n_items == train.n_items
        assert day1.n_sessions == train.n_sessions
        ids1 = [id(s) for s in day1.sessions]
        ids2 = [id(s) for s in day2.sessions]
        assert ids1 != ids2

    def test_failing_build_hook_counts_down(self):
        hook = failing_build_hook({"build": 2})
        with pytest.raises(RuntimeError):
            hook("build", 1)
        hook("ingest", 1)  # other phases unaffected
        with pytest.raises(RuntimeError):
            hook("build", 2)
        hook("build", 3)  # exhausted: passes

    def test_update_partition_rejects_moves(self, fitted_sisg, tiny_split):
        train, _ = tiny_split
        partition = hbgp_partition(train, HBGPConfig(n_partitions=2))
        store = ShardedModelStore.build(
            fitted_sisg.model, train, partition,
            n_cells=8, table_coverage=1.0, seed=0,
        )
        moved = store.item_partition.copy()
        moved[0] = 1 - moved[0]
        with pytest.raises(ValueError):
            store.update_partition(moved)
        with pytest.raises(ValueError):
            store.update_partition(store.item_partition[:-1])
        extended = np.concatenate([store.item_partition, [0, 1]])
        store.update_partition(extended)
        assert store.shard_of(len(extended) - 1) == 1

    def test_update_partition_allow_moves(self, fitted_sisg, tiny_split):
        """The streaming re-route path: an explicit opt-in may re-home
        existing items (the applier rebuilds both endpoint shards first)."""
        train, _ = tiny_split
        partition = hbgp_partition(train, HBGPConfig(n_partitions=2))
        store = ShardedModelStore.build(
            fitted_sisg.model, train, partition,
            n_cells=8, table_coverage=1.0, seed=0,
        )
        moved = store.item_partition.copy()
        moved[0] = 1 - moved[0]
        store.update_partition(moved, allow_moves=True)
        assert store.shard_of(0) == moved[0]
        # Shrinking the map stays invalid even with moves allowed.
        with pytest.raises(ValueError):
            store.update_partition(moved[:-1], allow_moves=True)
        # And a shard id with no bundle behind it is rejected.
        bad = moved.copy()
        bad[1] = 9
        with pytest.raises(ValueError):
            store.update_partition(bad, allow_moves=True)
