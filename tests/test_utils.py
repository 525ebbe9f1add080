"""Unit tests for the shared utilities."""

import logging
import os
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.utils import (
    Timer,
    available_cpus,
    ensure_rng,
    get_logger,
    require,
    require_in_range,
    require_positive,
    require_type,
    spawn_rngs,
)
from repro.utils.logger import configure_basic_logging


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_numpy_integer_accepted(self):
        assert isinstance(ensure_rng(np.int64(3)), np.random.Generator)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_children_independent_and_deterministic(self):
        a = [g.random() for g in spawn_rngs(7, 3)]
        b = [g.random() for g in spawn_rngs(7, 3)]
        assert a == b
        assert len(set(a)) == 3

    def test_zero_ok(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestTimer:
    def test_context_manager(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.01

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_live_elapsed(self):
        t = Timer()
        t.start()
        assert t.elapsed >= 0.0
        t.stop()


class TestLogger:
    def test_namespacing(self):
        assert get_logger("core.sgns").name == "repro.core.sgns"
        assert get_logger("repro.core.sgns").name == "repro.core.sgns"
        assert get_logger("repro").name == "repro"

    def test_configure_basic_logging_idempotent(self):
        configure_basic_logging(logging.INFO)
        configure_basic_logging(logging.DEBUG)
        logger = logging.getLogger("repro")
        real = [
            h for h in logger.handlers
            if not isinstance(h, logging.NullHandler)
        ]
        assert len(real) == 1
        # Restore quiet default for the rest of the suite.
        for handler in real:
            logger.removeHandler(handler)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")

    def test_require_positive(self):
        require_positive(1, "x")
        require_positive(0, "x", strict=False)
        with pytest.raises(ValueError):
            require_positive(0, "x")
        with pytest.raises(ValueError):
            require_positive(-1, "x", strict=False)

    def test_require_in_range(self):
        require_in_range(0.5, "x", 0, 1)
        require_in_range(0.0, "x", 0, 1)
        with pytest.raises(ValueError):
            require_in_range(0.0, "x", 0, 1, inclusive=False)
        with pytest.raises(ValueError):
            require_in_range(2.0, "x", 0, 1)

    def test_require_type(self):
        require_type(3, "x", int)
        require_type("s", "x", int, str)
        with pytest.raises(TypeError, match="x must be int"):
            require_type("s", "x", int)


class TestTimerLaps:
    def test_lap_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().lap()

    def test_laps_without_stopping(self):
        t = Timer()
        t.start()
        first = t.lap()
        second = t.lap()
        assert first >= 0.0 and second >= 0.0
        assert t.elapsed >= first + second  # still running

    def test_laps_sum_close_to_elapsed(self):
        t = Timer()
        t.start()
        laps = [t.lap() for _ in range(5)]
        total = t.stop()
        assert sum(laps) <= total

    def test_reuse_without_reallocation(self):
        t = Timer()
        for _ in range(3):
            t.start()
            t.lap()
            assert t.stop() >= 0.0

    def test_start_resets_lap_marker(self):
        t = Timer()
        t.start()
        time.sleep(0.005)
        t.start()  # restart: the pending lap interval is discarded
        assert t.lap() < 0.005


@contextmanager
def one_cpu_mask():
    """Restrict this thread's affinity mask to one CPU for the block."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no affinity masks on this platform")
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class TestAvailableCpus:
    """Every "is there a spare core?" policy reads the affinity mask."""

    def test_reads_the_mask(self):
        expected = (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        assert available_cpus() == expected
        with one_cpu_mask():
            assert available_cpus() == 1

    def test_policies_under_one_cpu(self):
        from repro.core.hogwild import resolve_n_workers
        from repro.core.pairfeed import resolve_feed_mode

        with one_cpu_mask():
            assert resolve_n_workers("auto") == 1
            assert resolve_feed_mode("auto", 1, True) == "inline"

    def test_hogwild_does_not_pin_two_workers_to_one_cpu(self):
        from repro.core.hogwild import ParallelSGNSTrainer
        from repro.core.sgns import SGNSConfig

        seqs = [np.arange(i % 20, i % 20 + 6, dtype=np.int64) for i in range(200)]
        counts = np.bincount(np.concatenate(seqs), minlength=30)
        cfg = SGNSConfig(dim=4, epochs=1, window=2, seed=0)
        with one_cpu_mask():
            trainer = ParallelSGNSTrainer(30, cfg, n_workers=2).fit(seqs, counts)
        assert trainer.n_workers == 2 and not trainer.pinned

    def test_sgns_plans_inline_under_one_cpu(self, monkeypatch):
        from repro.core.sgns import SGNSConfig, SGNSTrainer

        caller, on_caller = threading.get_ident(), []
        plan = SGNSTrainer._plan

        def spy(self, *args):
            on_caller.append(threading.get_ident() == caller)
            return plan(self, *args)

        monkeypatch.setattr(SGNSTrainer, "_plan", spy)
        seqs = [np.arange(i % 20, i % 20 + 6, dtype=np.int64) for i in range(200)]
        counts = np.bincount(np.concatenate(seqs), minlength=30)
        cfg = SGNSConfig(dim=4, epochs=2, window=2, batch_size=64, seed=0)
        with one_cpu_mask():
            SGNSTrainer(30, cfg).fit(seqs, counts)
        assert len(on_caller) > 2 * cfg.epochs and all(on_caller)
