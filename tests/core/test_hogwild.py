"""Tests for the shared-memory Hogwild engine and sequence sharding."""

import logging
import os
import types

import numpy as np
import pytest

import repro.core.hogwild as hogwild_module
from repro.core.hogwild import (
    PHASES,
    ParallelSGNSTrainer,
    resolve_n_workers,
    shard_sequences,
)
from repro.core.sampling import pairs_per_sequence
from repro.core.sgns import SGNSConfig
from repro.utils import available_cpus, require, require_positive


# ``shard_sequences`` as it was before HBGP majority routing was removed,
# kept verbatim as the reference: without a ``token_partition`` it is the
# balanced spread, which the current code must reproduce shard for shard.


def _reference_assign_balanced(
    free: np.ndarray,
    weights: np.ndarray,
    targets: np.ndarray,
    loads: np.ndarray,
) -> None:
    """Spread ``free`` sequences over workers by deficit filling.

    Array-ops replacement for the greedy LPT loop: sort the free
    sequences by descending weight, compute each worker's *deficit*
    against the post-assignment ideal load, and bin the sorted cumulative
    weight axis into the deficits (largest first) with one
    ``searchsorted``.  Every bin receives at most its deficit plus one
    straddling sequence, so the max load stays within one sequence
    weight of ideal — LPT-grade balance without the per-sequence Python
    loop.  Mutates ``targets`` and ``loads`` in place.
    """
    if len(free) == 0:
        return
    n_workers = len(loads)
    order = free[np.argsort(-weights[free], kind="stable")]
    w = weights[order].astype(np.float64)
    ideal = (loads.sum() + w.sum()) / n_workers
    deficits = np.maximum(ideal - loads, 0.0)
    bin_order = np.argsort(-deficits, kind="stable")
    bounds = np.cumsum(deficits[bin_order])
    starts = np.concatenate(([0.0], np.cumsum(w)[:-1]))
    slot = np.minimum(
        np.searchsorted(bounds, starts, side="right"), n_workers - 1
    )
    assigned = bin_order[slot]
    targets[order] = assigned
    loads += np.bincount(assigned, weights=w, minlength=n_workers)


def reference_shard_sequences(
    sequences: list[np.ndarray],
    n_workers: int,
    window: int = 5,
    token_partition: np.ndarray | None = None,
    balance: float = 1.25,
) -> list[np.ndarray]:
    """Assign sequences to ``n_workers`` disjoint shards.

    Without ``token_partition``, sequences are spread by deficit-filling
    on their expected pair count (near-perfect balance).  With it (HBGP
    mode), each sequence goes to the worker owning the majority of its
    tokens' partitions; shards exceeding ``balance`` times the mean load
    evict their smallest sequences, which are re-spread — locality
    first, balance as a bound.

    Fully vectorized: the majority vote is one ``bincount`` over the
    flattened corpus and the eviction cut one ``cumsum``/``searchsorted``
    per overloaded shard, so assignment cost is O(tokens) array work
    rather than a per-sequence interpreter loop (timed and asserted in
    ``benchmarks/bench_training_throughput.py``).

    Returns one sorted array of sequence indices per worker.
    """
    require_positive(n_workers, "n_workers")
    require(balance >= 1.0, f"balance must be >= 1.0, got {balance}")
    n_seqs = len(sequences)
    lengths = np.fromiter(
        (len(s) for s in sequences), dtype=np.int64, count=n_seqs
    )
    weights = pairs_per_sequence(lengths, window)
    targets = np.full(n_seqs, -1, dtype=np.int64)
    loads = np.zeros(n_workers, dtype=np.float64)

    if token_partition is not None and n_seqs:
        token_partition = np.asarray(token_partition, dtype=np.int64)
        flat = (
            np.concatenate(sequences)
            if lengths.sum()
            else np.empty(0, dtype=np.int64)
        )
        seq_of = np.repeat(np.arange(n_seqs), lengths)
        owners = token_partition[flat]
        valid = (owners >= 0) & (owners < n_workers)
        votes = np.bincount(
            seq_of[valid] * n_workers + owners[valid],
            minlength=n_seqs * n_workers,
        ).reshape(n_seqs, n_workers)
        owned = np.flatnonzero(votes.sum(axis=1) > 0)
        targets[owned] = votes[owned].argmax(axis=1)
        loads += np.bincount(
            targets[owned], weights=weights[owned], minlength=n_workers
        )
        # Balance bound: overloaded shards evict their smallest
        # sequences (least locality loss), keeping at least one.
        cap = balance * weights.sum() / n_workers
        for wid in np.flatnonzero(loads > cap):
            members = np.flatnonzero(targets == wid)
            order = members[np.argsort(weights[members], kind="stable")]
            cum = np.cumsum(weights[order])
            n_evict = int(
                np.searchsorted(cum, loads[wid] - cap, side="left")
            ) + 1
            n_evict = min(n_evict, len(order) - 1)
            if n_evict <= 0:
                continue
            evicted = order[:n_evict]
            targets[evicted] = -1
            loads[wid] -= weights[evicted].sum()

    _reference_assign_balanced(np.flatnonzero(targets == -1), weights, targets, loads)
    return [
        np.flatnonzero(targets == wid).astype(np.int64)
        for wid in range(n_workers)
    ]


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

    def test_matches_reference_spread(self):
        """300 random corpora: sequences of 0-60 tokens (empty ones in
        every corpus), 0-3 sequences in the first corpora so workers
        outnumber them, 1/2/3/8 workers, windows 1/3/5."""
        rng = np.random.default_rng(0)
        for corpus in range(300):
            n_seqs = corpus % 4 if corpus < 20 else int(rng.integers(4, 200))
            lengths = rng.integers(0, 61, size=n_seqs)
            lengths[: n_seqs // 10] = 0
            rng.shuffle(lengths)
            seqs = [rng.integers(0, 50, size=int(n)) for n in lengths]
            for n_workers in (1, 2, 3, 8):
                for window in (1, 3, 5):
                    got = shard_sequences(seqs, n_workers, window=window)
                    want = reference_shard_sequences(
                        seqs, n_workers, window=window
                    )
                    assert len(got) == n_workers
                    for g, w in zip(got, want):
                        assert g.dtype == np.int64
                        np.testing.assert_array_equal(g, w)

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
        cores = available_cpus()
        assert resolve_n_workers("auto") == cores
        assert resolve_n_workers("auto", n_shardable=1) == 1
        assert resolve_n_workers("auto", n_shardable=10**6) == cores

    def test_explicit_count_passes_through(self):
        assert resolve_n_workers(3) == 3

    def test_oversubscription_warns_loudly(self, caplog):
        cores = available_cpus()
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
            ParallelSGNSTrainer(10, n_workers=0)
        with pytest.raises(ValueError):
            ParallelSGNSTrainer(10, hot_threshold=0.0)

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
        expected = min(available_cpus(), 50)
        assert trainer.n_workers == expected
        assert len(trainer.worker_reports) == expected
        assert trainer.pairs_trained > 0

    def test_rejects_bad_feed_and_sync_modes(self):
        with pytest.raises(ValueError):
            ParallelSGNSTrainer(10, pair_feed="turbo")
        with pytest.raises(ValueError):
            ParallelSGNSTrainer(10, hot_sync="udp")


def hot_fit(hot_sync, n_workers=2):
    """A fit whose hottest output rows are replicated per worker."""
    seqs, counts = forward_chain_corpus(n_seqs=400, seed=2)
    cfg = SGNSConfig(dim=8, epochs=2, window=2, dtype="float32", seed=7)
    trainer = ParallelSGNSTrainer(
        30, cfg, n_workers=n_workers, hot_threshold=0.035, sync_interval=3,
        hot_sync=hot_sync, pair_feed="inline",
    ).fit(seqs, counts)
    hot_ids = np.flatnonzero(counts / counts.sum() >= 0.035)
    assert 0 < trainer.n_hot == len(hot_ids) < 30
    return trainer, hot_ids


class TestWorkerAccounting:
    def test_every_phase_timed_within_the_wall_time(self):
        trainer, _ = hot_fit("lock")
        assert len(trainer.worker_reports) == 2
        for report in trainer.worker_reports:
            assert set(report.phase_seconds) == set(PHASES)
            assert all(sec > 0 for sec in report.phase_seconds.values())
            assert sum(report.phase_seconds.values()) <= report.seconds
            assert 0 < report.hot_share < 1

    def test_no_hot_rows_no_hot_share(self):
        seqs, counts = forward_chain_corpus(n_seqs=100)
        trainer = ParallelSGNSTrainer(
            30, SGNSConfig(dim=4, epochs=1, window=2, seed=0), n_workers=1,
            hot_threshold=2.0,
        ).fit(seqs, counts)
        (report,) = trainer.worker_reports
        assert report.hot_share == 0.0
        assert report.phase_seconds["sync"] == 0.0
        assert report.phase_seconds["step"] > 0


def zipf_corpus(n_tokens=1500, n_seqs=400, seed=0):
    """Sequences over a heavy-tailed vocabulary: a few tokens clear
    ATNS's ``1e-3`` relative frequency, the tail does not."""
    rng = np.random.default_rng(seed)
    seqs = [
        np.minimum(rng.zipf(1.3, size=int(rng.integers(3, 8))), n_tokens) - 1
        for _ in range(n_seqs)
    ]
    counts = np.bincount(np.concatenate(seqs), minlength=n_tokens)
    return seqs, counts


class TestReplicaFreeDefault:
    """Replicas live behind the parameter server only, unless asked for."""

    def test_lock_default_has_no_hot_rows(self):
        seqs, counts = zipf_corpus()
        cfg = SGNSConfig(dim=4, epochs=1, window=2, seed=0)
        trainer = ParallelSGNSTrainer(1500, cfg, n_workers=2, hot_sync="lock")
        assert trainer.hot_threshold == 1.0
        trainer.fit(seqs, counts)
        assert trainer.n_hot == 0
        assert len(trainer.worker_reports) == 2
        assert all(r.hot_share == 0.0 for r in trainer.worker_reports)

    def test_server_default_is_the_atns_hot_set(self, monkeypatch):
        served = []
        real = hogwild_module.HotRowParameterServer

        def spy(w_out, hot_ids, *args, **kwargs):
            served.append(np.array(hot_ids))
            return real(w_out, hot_ids, *args, **kwargs)

        monkeypatch.setattr(hogwild_module, "HotRowParameterServer", spy)
        seqs, counts = zipf_corpus()
        cfg = SGNSConfig(dim=4, epochs=1, window=2, seed=0)
        trainer = ParallelSGNSTrainer(
            1500, cfg, n_workers=2, hot_sync="server"
        ).fit(seqs, counts)
        expected = np.flatnonzero(counts / counts.sum() >= 1e-3)
        assert 0 < len(expected) < 1500
        assert trainer.n_hot == len(expected)
        if trainer.hot_sync_used == "server":
            (hot_ids,) = served
            np.testing.assert_array_equal(hot_ids, expected)

    @pytest.mark.parametrize(
        "hot_sync, threshold, hot",
        [("lock", 1e-3, True), ("server", 2.0, False)],
    )
    def test_explicit_threshold_wins(self, hot_sync, threshold, hot):
        seqs, counts = zipf_corpus()
        cfg = SGNSConfig(dim=4, epochs=1, window=2, seed=0)
        trainer = ParallelSGNSTrainer(
            1500, cfg, n_workers=1, hot_sync=hot_sync, hot_threshold=threshold
        )
        assert trainer.hot_threshold == threshold
        trainer.fit(seqs, counts)
        assert (trainer.n_hot > 0) == hot

    @pytest.mark.parametrize("threshold, splits", [(None, False), (0.035, True)])
    def test_no_split_per_step_without_replicas(
        self, threshold, splits, monkeypatch
    ):
        """A count guard: the one in-process worker builds a
        ``HotRowSplit`` per step only when it holds a replica."""
        built = []

        class CountingSplit(hogwild_module.HotRowSplit):
            __slots__ = ()

            def __init__(self, slots):
                built.append(len(slots))
                super().__init__(slots)

        monkeypatch.setattr(hogwild_module, "HotRowSplit", CountingSplit)
        seqs, counts = forward_chain_corpus(n_seqs=200)
        cfg = SGNSConfig(dim=4, epochs=1, window=2, batch_size=32, seed=0)
        trainer = ParallelSGNSTrainer(
            30, cfg, n_workers=1, hot_threshold=threshold, pair_feed="inline"
        ).fit(seqs, counts)
        assert trainer.pairs_trained > 32
        assert bool(built) == splits
        assert (trainer.worker_reports[0].phase_seconds["translate"] > 0) == splits


class TestHotRowsReachTheSharedMatrix:
    """``w_out`` starts at zero and its hot rows move only through
    replica merges, so a dropped merge leaves them at zero."""

    @pytest.mark.parametrize("hot_sync", ["lock", "server"])
    def test_hot_rows_trained(self, hot_sync):
        trainer, hot_ids = hot_fit(hot_sync)
        assert trainer.hot_sync_used == hot_sync
        rows = trainer.w_out[hot_ids]
        assert np.all(np.isfinite(rows))
        assert np.all(np.any(rows != 0, axis=1))


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
class TestSharedMemoryCleanup:
    def test_failed_second_segment_leaks_nothing(self, monkeypatch):
        real = hogwild_module.shared_memory.SharedMemory
        creates = []

        def failing_second_create(*args, **kwargs):
            if kwargs.get("create"):
                creates.append(1)
                if len(creates) == 2:
                    raise OSError("no space left for the stats block")
            return real(*args, **kwargs)

        monkeypatch.setattr(
            hogwild_module,
            "shared_memory",
            types.SimpleNamespace(SharedMemory=failing_second_create),
        )
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(OSError, match="stats block"):
            hot_fit("lock", n_workers=1)
        assert len(creates) == 2
        assert set(os.listdir("/dev/shm")) - before == set()
