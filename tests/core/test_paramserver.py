"""Tests for the process-level hot-row parameter server (real TNS).

Covers the server's merge semantics in isolation (deltas accumulate,
the final block is published into the shared ``w_out``) and the
engine-level property that matters: ``hot_sync="server"`` trains to the
same quality as the lock-merge Hogwild engine.
"""

import multiprocessing
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.hogwild import ParallelSGNSTrainer
from repro.core.sgns import SGNSConfig

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not FORK_AVAILABLE, reason="parameter server requires the fork start method"
)


def chain_corpus(n_tokens=30, n_seqs=600, seed=0):
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n_seqs):
        start = int(rng.integers(0, n_tokens - 4))
        length = int(rng.integers(3, 6))
        seqs.append(np.arange(start, min(start + length, n_tokens), dtype=np.int64))
    counts = np.bincount(np.concatenate(seqs), minlength=n_tokens)
    return seqs, counts


@needs_fork
class TestServerMergeSemantics:
    def _shared_matrix(self, shape, dtype=np.float64):
        shm = shared_memory.SharedMemory(
            create=True, size=int(np.prod(shape)) * np.dtype(dtype).itemsize
        )
        mat = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        return shm, mat

    def test_deltas_accumulate_and_publish(self):
        from repro.core.paramserver import HotRowParameterServer, ServerHotSync

        ctx = multiprocessing.get_context("fork")
        shm, w_out = self._shared_matrix((10, 4))
        try:
            w_out[:] = 1.0
            hot_ids = np.array([2, 5, 7], dtype=np.int64)
            server = HotRowParameterServer(w_out, hot_ids, n_workers=2, ctx=ctx)
            server.start()
            a = ServerHotSync(server.connection(0))
            b = ServerHotSync(server.connection(1))
            np.testing.assert_array_equal(a.pull(), np.ones((3, 4)))
            # Deltas from both clients accumulate (sum, not average).
            merged_a = a.merge(np.full((3, 4), 0.5))
            np.testing.assert_allclose(merged_a, 1.5)
            merged_b = b.merge(np.full((3, 4), 0.25))
            np.testing.assert_allclose(merged_b, 1.75)
            # A later pull sees every prior merge.
            np.testing.assert_allclose(a.pull(), 1.75)
            a.close()
            b.close()
            server.join()
            # The final block was published into the shared matrix...
            np.testing.assert_allclose(w_out[hot_ids], 1.75)
            # ...and cold rows were never touched.
            cold = np.setdiff1d(np.arange(10), hot_ids)
            np.testing.assert_array_equal(w_out[cold], 1.0)
        finally:
            shm.close()
            shm.unlink()

    def test_crashed_client_does_not_hang_join(self):
        from repro.core.paramserver import HotRowParameterServer, ServerHotSync

        ctx = multiprocessing.get_context("fork")
        shm, w_out = self._shared_matrix((4, 2))
        try:
            hot_ids = np.array([0, 1], dtype=np.int64)
            server = HotRowParameterServer(w_out, hot_ids, n_workers=2, ctx=ctx)
            server.start()
            a = ServerHotSync(server.connection(0))
            a.merge(np.ones((2, 2)))
            a.close()
            # Client 1 never says DONE; join() closes the master's pipe
            # ends so the server sees EOF instead of blocking forever.
            server.join(timeout=10.0)
            np.testing.assert_allclose(w_out[hot_ids], 1.0)
        finally:
            shm.close()
            shm.unlink()


@needs_fork
class TestTnsEngineParity:
    def test_tns_matches_hogwild_quality(self):
        """Server-merged training learns the chain structure just like
        the lock-merged engine (same update volume, different sync path)."""
        seqs, counts = chain_corpus(n_seqs=1200)
        cfg = SGNSConfig(
            dim=16, epochs=4, window=2, learning_rate=0.05,
            subsample_threshold=0, dtype="float32", seed=1,
        )

        def margin(trainer):
            w = trainer.w_in

            def cos(a, b):
                return float(
                    w[a] @ w[b] / (np.linalg.norm(w[a]) * np.linalg.norm(w[b]))
                )

            near = np.mean([cos(i, i + 1) for i in range(5, 20)])
            far = np.mean([cos(i, i + 14) for i in range(5, 15)])
            return near - far

        # Both engines replicate ATNS's hot set: only the sync path differs.
        lock = ParallelSGNSTrainer(
            30, cfg, n_workers=2, sync_interval=4, hot_sync="lock",
            hot_threshold=1e-3,
        ).fit(seqs, counts)
        tns = ParallelSGNSTrainer(
            30, cfg, n_workers=2, sync_interval=4, hot_sync="server"
        ).fit(seqs, counts)
        assert tns.hot_sync_used == "server"
        assert tns.pairs_trained == lock.pairs_trained
        assert np.all(np.isfinite(tns.w_in))
        assert margin(tns) > 0.2
        assert abs(margin(tns) - margin(lock)) < 0.15

    def test_server_with_single_worker_matches_inline_hot_path(self):
        """n_workers=1 exercises the server from the master process."""
        seqs, counts = chain_corpus(n_seqs=200)
        cfg = SGNSConfig(dim=8, epochs=1, window=2, seed=3)
        t = ParallelSGNSTrainer(30, cfg, n_workers=1, hot_sync="server").fit(
            seqs, counts
        )
        assert t.hot_sync_used == "server"
        assert t.n_hot > 0
        assert np.all(np.isfinite(t.w_out))

    def test_no_hot_rows_skips_server(self):
        """hot_threshold >= 1 leaves nothing to serve; training still runs."""
        seqs, counts = chain_corpus(n_seqs=100)
        cfg = SGNSConfig(dim=4, epochs=1, window=2, seed=0)
        t = ParallelSGNSTrainer(
            30, cfg, n_workers=2, hot_sync="server", hot_threshold=2.0
        ).fit(seqs, counts)
        assert t.n_hot == 0
        assert np.all(np.isfinite(t.w_out))
