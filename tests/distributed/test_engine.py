"""Tests for the distributed TNS/ATNS engine, including quality parity."""

import numpy as np
import pytest

from repro.core.enrichment import build_enriched_corpus
from repro.core.model import EmbeddingModel
from repro.core.sgns import HotRowSplit, SGNSConfig, SGNSTrainer
from repro.core.similarity import SimilarityIndex
from repro.distributed.cluster import CostModel
import repro.distributed.engine as engine_module
from repro.distributed.engine import train_distributed
from repro.distributed.partition import build_token_partition
from repro.eval.hitrate import evaluate_hitrate


@pytest.fixture(scope="module")
def corpus(tiny_split):
    train, _ = tiny_split
    return build_enriched_corpus(train, with_si=False, with_user_types=False)


@pytest.fixture(scope="module")
def rich_corpus(tiny_split):
    train, _ = tiny_split
    return build_enriched_corpus(train, with_si=True, with_user_types=True)


SMALL_CFG = SGNSConfig(dim=12, epochs=2, window=2, negatives=4, seed=11)


class TestBasicRun:
    def test_shapes_and_finiteness(self, corpus):
        result = train_distributed(corpus, SMALL_CFG, n_workers=3)
        assert result.w_in.shape == (len(corpus.vocab), 12)
        assert result.w_out.shape == result.w_in.shape
        assert np.all(np.isfinite(result.w_in))
        assert np.all(np.isfinite(result.w_out))

    def test_stats_accounting(self, corpus):
        result = train_distributed(corpus, SMALL_CFG, n_workers=3)
        stats = result.stats
        assert stats.n_workers == 3
        assert stats.pairs_processed > 0
        assert 0.0 <= stats.remote_fraction <= 1.0
        assert stats.simulated_seconds > 0.0
        assert len(stats.worker_compute) == 3

    def test_loss_recorded_per_epoch(self, corpus):
        result = train_distributed(corpus, SMALL_CFG, n_workers=2)
        assert len(result.loss_history) == SMALL_CFG.epochs
        assert result.loss_history[-1] <= result.loss_history[0] * 1.1

    def test_deterministic_given_seed(self, corpus):
        a = train_distributed(corpus, SMALL_CFG, n_workers=2)
        b = train_distributed(corpus, SMALL_CFG, n_workers=2)
        np.testing.assert_array_equal(a.w_in, b.w_in)

    def test_single_worker_has_no_remote_pairs(self, corpus):
        result = train_distributed(corpus, SMALL_CFG, n_workers=1)
        assert result.stats.remote_fraction == 0.0

    def test_partition_worker_mismatch_rejected(self, corpus):
        partition = build_token_partition(corpus, n_workers=2, seed=0)
        with pytest.raises(ValueError, match="workers"):
            train_distributed(corpus, SMALL_CFG, n_workers=4, partition=partition)


class TestATNS:
    def test_hot_set_replication_reduces_remote_fraction(self, rich_corpus):
        """Replicating hot tokens must cut cross-worker traffic."""
        no_hot = train_distributed(
            rich_corpus, SMALL_CFG, n_workers=4, hot_threshold=1.0
        )
        with_hot = train_distributed(
            rich_corpus, SMALL_CFG, n_workers=4, hot_threshold=0.002
        )
        assert with_hot.stats.remote_fraction < no_hot.stats.remote_fraction

    def test_sync_rounds_accounted(self, rich_corpus):
        result = train_distributed(
            rich_corpus, SMALL_CFG, n_workers=2, hot_threshold=0.002,
            sync_interval=5,
        )
        assert result.stats.sync_rounds > 0
        assert result.stats.sync_seconds > 0.0

    def test_replicas_converge_to_global_rows(self, rich_corpus):
        """After the final sync, global w_out holds the averaged replicas
        and those rows are finite and non-degenerate."""
        result = train_distributed(
            rich_corpus, SMALL_CFG, n_workers=3, hot_threshold=0.002
        )
        partition = build_token_partition(
            rich_corpus, 3, hot_threshold=0.002, seed=SMALL_CFG.seed
        )
        hot = np.flatnonzero(partition.shared)
        assert len(hot) > 0
        assert np.all(np.isfinite(result.w_out[hot]))
        assert np.linalg.norm(result.w_out[hot]) > 0


class TestScalability:
    def test_more_workers_less_simulated_time(self, corpus):
        """Compute scales ~1/w once latency is excluded.

        The tiny test corpus makes per-batch RPC latency comparable to
        compute, so the scaling shape is asserted on a latency-free cost
        model (the Fig. 7a benchmark uses realistic sizes instead).
        """
        model = CostModel(rpc_latency=0.0, sync_latency=0.0)
        times = []
        for w in (1, 2, 4):
            result = train_distributed(
                corpus, SMALL_CFG, n_workers=w, cost_model=model
            )
            times.append(result.stats.simulated_seconds)
        assert times[2] < times[1] < times[0]

    def test_latency_increases_simulated_time(self, corpus):
        quiet = train_distributed(
            corpus, SMALL_CFG, n_workers=4,
            cost_model=CostModel(rpc_latency=0.0),
        ).stats.simulated_seconds
        chatty = train_distributed(
            corpus, SMALL_CFG, n_workers=4,
            cost_model=CostModel(rpc_latency=1e-3),
        ).stats.simulated_seconds
        assert chatty > quiet

    def test_communication_costs_accounted(self, corpus):
        result = train_distributed(corpus, SMALL_CFG, n_workers=4)
        stats = result.stats
        if stats.pairs_remote > 0:
            assert stats.floats_transferred > 0
            assert sum(stats.worker_communication) > 0.0

    def test_custom_cost_model_scales_time(self, corpus):
        slow = CostModel(flops_per_second=1e6)
        fast = CostModel(flops_per_second=1e12)
        t_slow = train_distributed(
            corpus, SMALL_CFG, n_workers=2, cost_model=slow
        ).stats.simulated_seconds
        t_fast = train_distributed(
            corpus, SMALL_CFG, n_workers=2, cost_model=fast
        ).stats.simulated_seconds
        assert t_slow > t_fast


class TestQualityParity:
    def test_distributed_matches_local_quality(self, tiny_split, corpus):
        """The engine's approximations must not destroy retrieval quality.

        Compare HR@10 of local vs distributed training on identical
        corpora: the distributed run must reach at least 70% of the
        local trainer's hit rate (local noise distributions and replica
        staleness cost a little, as on a real cluster).
        """
        train, test = tiny_split

        local = SGNSTrainer(len(corpus.vocab), SMALL_CFG)
        local.fit(corpus.sequences, corpus.vocab.counts)
        local_model = EmbeddingModel(corpus.vocab, local.w_in, local.w_out)
        local_hr = evaluate_hitrate(
            SimilarityIndex(local_model), test, ks=(10,), name="local"
        ).hit_rates[10]

        dist = train_distributed(corpus, SMALL_CFG, n_workers=4)
        dist_model = EmbeddingModel(corpus.vocab, dist.w_in, dist.w_out)
        dist_hr = evaluate_hitrate(
            SimilarityIndex(dist_model), test, ks=(10,), name="dist"
        ).hit_rates[10]

        assert dist_hr >= 0.7 * local_hr


class MaskHotRowSplit:
    """``train_distributed``'s ``gather_out`` / ``scatter_out`` as they
    were: boolean masks over ``slots >= 0`` (``is_shared[tokens]``),
    behind :class:`HotRowSplit`'s interface so it can stand in for it."""

    def __init__(self, slots):
        self.slots = slots

    def gather(self, matrix, replica, tokens):
        rows = matrix[tokens].copy()
        mask = self.slots >= 0
        if mask.any():
            rows[mask] = replica[self.slots[mask]]
        return rows

    def scatter(self, scatter, matrix, replica, tokens, grads, lr):
        mask = self.slots >= 0
        scatter(replica, self.slots[mask], grads[mask], lr)
        scatter(matrix, tokens[~mask], grads[~mask], lr)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


class TestHotRowSplitMatchesMasks:
    """The split by position moves the bytes the mask form moved."""

    @pytest.mark.parametrize("share", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gather_and_scatter(self, share, dtype):
        rng = np.random.default_rng(3)
        vocab, n_hot, dim, n = 40, 6, 4, 300
        cfg = SGNSConfig(dim=dim, dtype=dtype)
        hot_row = np.full(vocab, -1)
        hot_row[:n_hot] = np.arange(n_hot)
        tokens = np.where(
            rng.random(n) < share,
            rng.integers(0, n_hot, n),
            rng.integers(n_hot, vocab, n),
        )
        grads = rng.standard_normal((n, dim)).astype(dtype)
        matrix = rng.standard_normal((vocab, dim)).astype(dtype)
        replica = rng.standard_normal((n_hot, dim)).astype(dtype)
        results = []
        for split_class in (HotRowSplit, MaskHotRowSplit):
            split = split_class(hot_row[tokens])
            m, r = matrix.copy(), replica.copy()
            rows = split.gather(m, r, tokens)
            split.scatter(cfg.scatter, m, r, tokens, grads, 0.1)
            results.append((rows, m, r))
        for ours, ref in zip(*results):
            np.testing.assert_array_equal(bits(ours), bits(ref))


class TestTrainDistributedMatchesMaskForm:
    """``train_distributed`` with the position split trains the bytes
    its mask form (``MaskHotRowSplit``) trains."""

    @pytest.mark.parametrize("hot_threshold", [0.002, 1.0], ids=["hot-rows", "no-hot-rows"])
    def test_bytes(self, rich_corpus, hot_threshold, monkeypatch):
        def fit():
            return train_distributed(
                rich_corpus, SMALL_CFG, n_workers=3, hot_threshold=hot_threshold
            )

        ours = fit()
        monkeypatch.setattr(engine_module, "HotRowSplit", MaskHotRowSplit)
        ref = fit()
        np.testing.assert_array_equal(bits(ours.w_in), bits(ref.w_in))
        np.testing.assert_array_equal(bits(ours.w_out), bits(ref.w_out))
        assert ours.loss_history == ref.loss_history
        assert ours.stats == ref.stats
