"""Tests for the inline and pipelined pair feeds.

The load-bearing property is *equivalence*: pipelining moves pair
materialization into a producer process but must never change the
training data.  Both feeds share one seeded generator construction
(:func:`make_shard_generator`), so for equal arguments they emit
byte-identical pair streams — asserted here directly on the streams and
end-to-end on trained parameters.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.pairfeed import (
    EpochPairFeed,
    PipelinedPairFeed,
    resolve_feed_mode,
)
from repro.core.hogwild import ParallelSGNSTrainer
from repro.core.sgns import SGNSConfig
from repro.utils import available_cpus

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="pipelined feed requires the fork start method"
)


def chain_corpus(n_tokens=40, n_seqs=120, seed=0):
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n_seqs):
        start = int(rng.integers(0, n_tokens - 6))
        seqs.append(np.arange(start, start + int(rng.integers(3, 7)), dtype=np.int64))
    counts = np.bincount(np.concatenate(seqs), minlength=n_tokens)
    return seqs, counts


class TestFeedEquivalence:
    @needs_fork
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_identical_pair_streams(self, shuffle):
        """Inline and pipelined feeds emit byte-identical epochs."""
        seqs, counts = chain_corpus()
        cfg = SGNSConfig(
            dim=4, epochs=3, window=2, seed=9, shuffle_pairs=shuffle
        )
        keep = np.full(40, 0.8)
        inline = EpochPairFeed(seqs, cfg, keep, seed=123)
        piped = PipelinedPairFeed(seqs, cfg, keep, seed=123)
        try:
            piped.start()
            n_epochs = 0
            # The pipelined views are only valid until the next epoch is
            # pulled (the producer reuses the double buffer), so compare
            # inside the loop.
            for (ci, xi), (cp, xp) in zip(inline.epochs(), piped.epochs()):
                n_epochs += 1
                np.testing.assert_array_equal(ci, np.array(cp))
                np.testing.assert_array_equal(xi, np.array(xp))
            assert n_epochs == cfg.epochs
        finally:
            piped.close()
        assert piped.producer_exitcode == 0

    @needs_fork
    def test_trained_parameters_identical_across_feeds(self):
        """With one worker, the feed mode cannot change the result bits."""
        seqs, counts = chain_corpus()
        cfg = SGNSConfig(dim=8, epochs=2, window=2, seed=5)
        a = ParallelSGNSTrainer(40, cfg, n_workers=1, pair_feed="inline").fit(
            seqs, counts
        )
        b = ParallelSGNSTrainer(
            40, cfg, n_workers=1, pair_feed="pipelined"
        ).fit(seqs, counts)
        assert a.feed_mode == "inline"
        assert b.feed_mode == "pipelined"
        np.testing.assert_array_equal(a.w_in, b.w_in)
        np.testing.assert_array_equal(a.w_out, b.w_out)

    @needs_fork
    def test_subsampling_stream_respects_keep(self):
        """The producer applies the same subsampling draw as inline."""
        seqs, counts = chain_corpus()
        cfg = SGNSConfig(dim=4, epochs=2, window=2, seed=2)
        keep = np.full(40, 0.5)
        inline = EpochPairFeed(seqs, cfg, keep, seed=77)
        full = EpochPairFeed(seqs, cfg, None, seed=77)
        kept = sum(len(c) for c, _ in inline.epochs())
        total = sum(len(c) for c, _ in full.epochs())
        assert 0 < kept < total


class TestPipelinedLifecycle:
    @needs_fork
    def test_capacity_holds_full_epoch(self):
        seqs, counts = chain_corpus()
        cfg = SGNSConfig(dim=4, epochs=1, window=2, seed=0)
        feed = PipelinedPairFeed(seqs, cfg, None, seed=1)
        try:
            feed.start()
            for c, x in feed.epochs():
                assert len(c) == len(x) <= feed.capacity
        finally:
            feed.close()

    @needs_fork
    def test_close_is_idempotent_and_reaps_producer(self):
        seqs, _ = chain_corpus(n_seqs=10)
        cfg = SGNSConfig(dim=4, epochs=1, window=2, seed=0)
        feed = PipelinedPairFeed(seqs, cfg, None, seed=1)
        feed.start()
        list(feed.epochs())
        feed.close()
        feed.close()  # second close must be a no-op
        assert feed.producer_exitcode == 0

    @needs_fork
    def test_close_without_consuming_terminates_producer(self):
        """Abandoning a feed mid-run must not hang the caller."""
        seqs, _ = chain_corpus()
        cfg = SGNSConfig(dim=4, epochs=4, window=2, seed=0)
        feed = PipelinedPairFeed(seqs, cfg, None, seed=1)
        feed.start()
        feed.close(timeout=0.5)
        assert feed.producer_exitcode is not None


class TestResolveFeedMode:
    def test_inline_always_honoured(self):
        assert resolve_feed_mode("inline", 4, True) == "inline"

    def test_pipelined_requires_fork(self):
        assert resolve_feed_mode("pipelined", 4, True) == "pipelined"
        assert resolve_feed_mode("pipelined", 4, False) == "inline"

    def test_auto_needs_spare_cores(self):
        cores = available_cpus()
        assert resolve_feed_mode("auto", cores, True) == "inline"
        if cores > 1:
            assert resolve_feed_mode("auto", 1, True) == "pipelined"
        assert resolve_feed_mode("auto", 2, False) == "inline"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="pair_feed"):
            resolve_feed_mode("turbo", 2, True)
