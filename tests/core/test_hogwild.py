"""Tests for the shared-memory Hogwild engine and sequence sharding."""

import logging
import os

import numpy as np
import pytest

from repro.core.hogwild import (
    ParallelSGNSTrainer,
    resolve_n_workers,
    shard_sequences,
)
from repro.core.sampling import pairs_per_sequence
from repro.core.sgns import SGNSConfig


def forward_chain_corpus(n_tokens=30, n_seqs=800, seed=0):
    """Sequences walking forward along 0..n_tokens-1."""
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n_seqs):
        start = int(rng.integers(0, n_tokens - 4))
        length = int(rng.integers(3, 6))
        seqs.append(np.arange(start, min(start + length, n_tokens), dtype=np.int64))
    counts = np.bincount(np.concatenate(seqs), minlength=n_tokens)
    return seqs, counts


class TestShardSequences:
    def test_disjoint_and_complete(self):
        seqs, _ = forward_chain_corpus(n_seqs=200)
        shards = shard_sequences(seqs, 4)
        merged = sorted(np.concatenate(shards).tolist())
        assert merged == list(range(len(seqs)))

    def test_pair_load_balanced(self):
        rng = np.random.default_rng(1)
        seqs = [
            np.zeros(int(n), dtype=np.int64)
            for n in rng.integers(2, 60, size=300)
        ]
        shards = shard_sequences(seqs, 4, window=5)
        weights = pairs_per_sequence([len(s) for s in seqs], 5)
        loads = [int(weights[shard].sum()) for shard in shards]
        assert max(loads) <= 1.1 * (sum(loads) / len(loads)) + weights.max()

    def test_more_workers_than_sequences(self):
        seqs = [np.arange(4, dtype=np.int64)]
        shards = shard_sequences(seqs, 4)
        assert sum(len(s) for s in shards) == 1

    def test_hbgp_routes_to_majority_owner(self):
        # Tokens 0-9 owned by worker 0, 10-19 by worker 1.
        part = np.repeat(np.arange(2), 10).astype(np.int64)
        seqs = [
            np.array([0, 1, 2, 15], dtype=np.int64),  # majority worker 0
            np.array([12, 13, 14, 3], dtype=np.int64),  # majority worker 1
        ]
        shards = shard_sequences(seqs, 2, token_partition=part)
        assert 0 in shards[0].tolist()
        assert 1 in shards[1].tolist()

    def test_hbgp_unowned_tokens_spread_greedily(self):
        part = np.full(20, -1, dtype=np.int64)
        seqs = [np.arange(10, dtype=np.int64) for _ in range(8)]
        shards = shard_sequences(seqs, 2, token_partition=part)
        assert sorted(len(s) for s in shards) == [4, 4]

    def test_hbgp_balance_bound_evicts_overload(self):
        # Every sequence prefers worker 0; the bound must spill some over.
        part = np.zeros(20, dtype=np.int64)
        seqs = [np.arange(8, dtype=np.int64) for _ in range(10)]
        shards = shard_sequences(seqs, 2, token_partition=part, balance=1.25)
        merged = sorted(np.concatenate(shards).tolist())
        assert merged == list(range(10))
        assert len(shards[1]) > 0

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            shard_sequences([np.arange(3)], 0)

    def test_vectorized_weights_match_scalar(self):
        """The closed form against counting the window offsets one by one."""
        lengths = np.arange(0, 30, dtype=np.int64)
        ref = [
            sum(int(n) - d for d in range(1, min(5, int(n) - 1) + 1))
            for n in lengths
        ]
        np.testing.assert_array_equal(pairs_per_sequence(lengths, 5), ref)

    def test_handles_empty_sequences(self):
        seqs = [np.empty(0, dtype=np.int64), np.arange(6, dtype=np.int64)]
        shards = shard_sequences(seqs, 2)
        merged = sorted(np.concatenate(shards).tolist())
        assert merged == [0, 1]


class TestResolveNWorkers:
    def test_auto_caps_by_cores_and_shards(self):
        cores = os.cpu_count() or 1
        assert resolve_n_workers("auto") == cores
        assert resolve_n_workers("auto", n_shardable=1) == 1
        assert resolve_n_workers("auto", n_shardable=10**6) == cores

    def test_explicit_count_passes_through(self):
        assert resolve_n_workers(3) == 3

    def test_oversubscription_warns_loudly(self, caplog):
        cores = os.cpu_count() or 1
        with caplog.at_level(logging.WARNING, logger="repro.core.hogwild"):
            resolve_n_workers(cores + 4)
        assert any("exceeds" in rec.message for rec in caplog.records)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_n_workers("turbo")
        with pytest.raises(ValueError):
            resolve_n_workers(0)


class TestParallelTrainer:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ParallelSGNSTrainer(10, shard_strategy="nope")
        with pytest.raises(ValueError):
            ParallelSGNSTrainer(10, n_workers=0)
        with pytest.raises(ValueError):
            ParallelSGNSTrainer(10, hot_threshold=0.0)

    def test_hbgp_requires_partition(self):
        seqs, counts = forward_chain_corpus(n_seqs=50)
        trainer = ParallelSGNSTrainer(
            30, SGNSConfig(dim=4, epochs=1), n_workers=2, shard_strategy="hbgp"
        )
        with pytest.raises(ValueError):
            trainer.fit(seqs, counts)

    def test_shapes_finiteness_and_accounting(self):
        seqs, counts = forward_chain_corpus(n_seqs=300)
        cfg = SGNSConfig(dim=8, epochs=2, window=2, dtype="float32", seed=3)
        trainer = ParallelSGNSTrainer(30, cfg, n_workers=2).fit(seqs, counts)
        assert trainer.w_in.shape == (30, 8)
        assert trainer.w_in.dtype == np.float32
        assert np.all(np.isfinite(trainer.w_in))
        assert np.all(np.isfinite(trainer.w_out))
        assert trainer.pairs_trained > 0
        assert len(trainer.loss_history) == 2
        assert len(trainer.worker_reports) == 2
        assert (
            sum(r.pairs for r in trainer.worker_reports)
            == trainer.pairs_trained
        )

    def test_single_worker_deterministic(self):
        seqs, counts = forward_chain_corpus(n_seqs=100)
        cfg = SGNSConfig(dim=8, epochs=1, window=2, seed=5, shuffle_pairs=False)
        a = ParallelSGNSTrainer(30, cfg, n_workers=1).fit(seqs, counts)
        b = ParallelSGNSTrainer(30, cfg, n_workers=1).fit(seqs, counts)
        np.testing.assert_array_equal(a.w_in, b.w_in)
        np.testing.assert_array_equal(a.w_out, b.w_out)

    def test_parallel_learns_chain_structure(self):
        """Adjacent chain tokens end up closer than distant ones even
        with lock-free multi-worker updates."""
        seqs, counts = forward_chain_corpus(n_seqs=1200)
        cfg = SGNSConfig(
            dim=16, epochs=4, window=2, learning_rate=0.05,
            subsample_threshold=0, dtype="float32", seed=1,
        )
        trainer = ParallelSGNSTrainer(
            30, cfg, n_workers=2, sync_interval=4
        ).fit(seqs, counts)

        def cos(a, b):
            return float(
                trainer.w_in[a] @ trainer.w_in[b]
                / (
                    np.linalg.norm(trainer.w_in[a])
                    * np.linalg.norm(trainer.w_in[b])
                )
            )

        near = np.mean([cos(i, i + 1) for i in range(5, 20)])
        far = np.mean([cos(i, i + 14) for i in range(5, 15)])
        assert near > far + 0.2

    def test_hot_replication_disabled_above_one(self):
        seqs, counts = forward_chain_corpus(n_seqs=100)
        cfg = SGNSConfig(dim=4, epochs=1, window=2, seed=0)
        trainer = ParallelSGNSTrainer(
            30, cfg, n_workers=2, hot_threshold=2.0
        ).fit(seqs, counts)
        assert trainer.n_hot == 0
        assert np.all(np.isfinite(trainer.w_out))

    def test_counts_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParallelSGNSTrainer(30, SGNSConfig(dim=4)).fit(
                [np.arange(5, dtype=np.int64)], np.ones(10, dtype=np.int64)
            )

    def test_auto_workers_resolves_at_fit(self):
        seqs, counts = forward_chain_corpus(n_seqs=50)
        cfg = SGNSConfig(dim=4, epochs=1, window=2, seed=0)
        trainer = ParallelSGNSTrainer(30, cfg, n_workers="auto").fit(
            seqs, counts
        )
        expected = min(os.cpu_count() or 1, 50)
        assert trainer.n_workers == expected
        assert len(trainer.worker_reports) == expected
        assert trainer.pairs_trained > 0

    def test_rejects_bad_feed_and_sync_modes(self):
        with pytest.raises(ValueError):
            ParallelSGNSTrainer(10, pair_feed="turbo")
        with pytest.raises(ValueError):
            ParallelSGNSTrainer(10, hot_sync="udp")
