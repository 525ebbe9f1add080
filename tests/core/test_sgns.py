"""Unit tests for the SGNS trainer: math helpers, updates, convergence."""

import numpy as np
import pytest

from repro.core.enrichment import build_enriched_corpus
from repro.core.hogwild import ParallelSGNSTrainer
from repro.core.sampling import PairGenerator
from repro.core.sgns import (
    SGNSConfig,
    SGNSTrainer,
    lr_at,
    scatter_update,
    sgns_gradients,
    sigmoid,
)
from repro.distributed.engine import train_distributed


class TestSigmoid:
    def test_symmetry(self):
        x = np.linspace(-10, 10, 41)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_extremes_are_finite(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_zero(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)


def eq3_batch_loss(centers, positives, negatives):
    """Eq. 3 negative log-likelihood summed over the batch, written
    without ``sigmoid``: ``-log s(x) = log(1 + e^-x)``."""
    pos = np.einsum("bd,bd->b", centers, positives)
    neg = np.einsum("bd,bnd->bn", centers, negatives)
    return np.logaddexp(0.0, -pos).sum() + np.logaddexp(0.0, neg).sum()


def central_difference(fn, x, eps=1e-6):
    grad = np.empty_like(x)
    flat, out = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = fn()
        flat[i] = keep - eps
        down = fn()
        flat[i] = keep
        out[i] = (up - down) / (2 * eps)
    return grad


class TestSGNSGradients:
    """The one gradient kernel every trainer calls, against the maths."""

    @staticmethod
    def gathered_batch(directional, n_negatives):
        """Rows gathered the way a trainer gathers them: real pairs of a
        symmetric (mirrored pairs, tokens on both sides) or directional
        generator, out of non-trivial matrices."""
        rng = np.random.default_rng(5)
        seqs = [rng.integers(0, 9, size=6) for _ in range(3)]
        centers, contexts = next(
            PairGenerator(
                seqs, window=2, directional=directional, dynamic_window=False,
                seed=1, precompute=True,
            ).batches(16)
        )
        w_in = rng.standard_normal((9, 4))
        w_out = rng.standard_normal((9, 4))
        negatives = rng.integers(0, 9, size=(len(centers), n_negatives))
        return w_in[centers], w_out[contexts], w_out[negatives]

    @pytest.mark.parametrize("n_negatives", [1, 5])
    @pytest.mark.parametrize("directional", [False, True], ids=["symmetric", "directional"])
    def test_matches_central_difference_of_eq3(self, directional, n_negatives):
        rows = self.gathered_batch(directional, n_negatives)
        assert all(r.dtype == np.float64 for r in rows)
        *grads, loss = sgns_gradients(*rows)
        for row, grad in zip(rows, grads):
            assert grad.shape == row.shape
            numeric = central_difference(lambda: eq3_batch_loss(*rows), row)
            np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("n_negatives", [1, 5])
    def test_loss_is_the_minibatch_mean(self, n_negatives):
        rows = self.gathered_batch(False, n_negatives)
        loss = sgns_gradients(*rows)[3]
        assert isinstance(loss, float)
        assert loss == pytest.approx(
            eq3_batch_loss(*rows) / len(rows[0]), rel=1e-12
        )

    def test_float32_rows_give_float32_gradients(self):
        rows = [r.astype(np.float32) for r in self.gathered_batch(True, 5)]
        *grads, _loss = sgns_gradients(*rows)
        assert all(g.dtype == np.float32 for g in grads)


class TestSchedule:
    def test_linear_decay_to_the_floor_and_no_further(self):
        cfg = SGNSConfig(learning_rate=0.1, min_lr_fraction=0.1)
        assert lr_at(cfg, 0, 1000) == pytest.approx(0.1)
        assert lr_at(cfg, 500, 1000) == pytest.approx(0.055)
        assert lr_at(cfg, 1000, 1000) == pytest.approx(0.01)
        assert lr_at(cfg, 5000, 1000) == pytest.approx(0.01)
        assert lr_at(cfg, 0, 0) == pytest.approx(0.1)  # empty corpus


class TestOneFitPrelude:
    """All three SGNS fits reject a misaligned keep-probability override
    with the same error."""

    @pytest.mark.parametrize("fit", ["sequential", "hogwild", "simulation"])
    def test_keep_length_mismatch_is_one_error(self, fit, tiny_split):
        corpus = build_enriched_corpus(
            tiny_split[0], with_si=False, with_user_types=False
        )
        n = len(corpus.vocab)
        cfg = SGNSConfig(dim=4, epochs=1, window=1)
        short = np.ones(n - 1)
        message = f"keep_probabilities has length {n - 1}, expected {n}"
        with pytest.raises(ValueError) as err:
            if fit == "sequential":
                SGNSTrainer(n, cfg).fit(
                    corpus.sequences, corpus.vocab.counts, short
                )
            elif fit == "hogwild":
                ParallelSGNSTrainer(n, cfg, n_workers=1).fit(
                    corpus.sequences, corpus.vocab.counts, short
                )
            else:
                train_distributed(
                    corpus, cfg, n_workers=2, keep_probabilities=short
                )
        assert str(err.value) == message


class TestScatterUpdate:
    def test_sum_policy_accumulates_duplicates(self):
        matrix = np.zeros((4, 2))
        scatter_update(
            matrix,
            np.array([1, 1, 2]),
            np.array([[1.0, 0.0], [3.0, 0.0], [5.0, 0.0]]),
            lr=1.0,
            duplicate_policy="sum",
            max_step_norm=None,
        )
        np.testing.assert_allclose(matrix[1], [-4.0, 0.0])
        np.testing.assert_allclose(matrix[2], [-5.0, 0.0])

    def test_mean_policy_averages_duplicates(self):
        matrix = np.zeros((4, 2))
        scatter_update(
            matrix,
            np.array([1, 1]),
            np.array([[1.0, 0.0], [3.0, 0.0]]),
            lr=1.0,
            duplicate_policy="mean",
            max_step_norm=None,
        )
        np.testing.assert_allclose(matrix[1], [-2.0, 0.0])

    def test_clipping_bounds_step_norm(self):
        matrix = np.zeros((2, 2))
        scatter_update(
            matrix,
            np.array([0]),
            np.array([[30.0, 40.0]]),
            lr=1.0,
            duplicate_policy="sum",
            max_step_norm=0.5,
        )
        assert np.linalg.norm(matrix[0]) == pytest.approx(0.5)

    def test_small_steps_not_rescaled(self):
        matrix = np.zeros((2, 2))
        scatter_update(
            matrix,
            np.array([0]),
            np.array([[0.03, 0.04]]),
            lr=1.0,
            max_step_norm=0.5,
        )
        np.testing.assert_allclose(matrix[0], [-0.03, -0.04])

    def test_untouched_rows_stay_zero(self):
        matrix = np.zeros((5, 3))
        scatter_update(matrix, np.array([2]), np.ones((1, 3)), lr=0.1)
        assert np.all(matrix[[0, 1, 3, 4]] == 0.0)


class TestConfigValidation:
    def test_default_valid(self):
        SGNSConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dim", 0),
            ("window", 0),
            ("negatives", 0),
            ("epochs", 0),
            ("learning_rate", 0.0),
            ("batch_size", 0),
            ("noise_alpha", 2.0),
            ("min_lr_fraction", 1.5),
            ("duplicate_policy", "max"),
            ("max_step_norm", -1.0),
        ],
    )
    def test_invalid_settings_rejected(self, field, value):
        cfg = SGNSConfig()
        setattr(cfg, field, value)
        with pytest.raises(ValueError):
            cfg.validate()


def forward_chain_corpus(n_tokens=30, n_seqs=1500, seed=0):
    """Sequences walking forward along 0..n_tokens-1."""
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n_seqs):
        start = int(rng.integers(0, n_tokens - 4))
        length = int(rng.integers(3, 6))
        seqs.append(np.arange(start, min(start + length, n_tokens), dtype=np.int64))
    counts = np.bincount(np.concatenate(seqs), minlength=n_tokens)
    return seqs, counts


class TestTraining:
    def test_rejects_bad_vocab_size(self):
        with pytest.raises(ValueError):
            SGNSTrainer(0)

    def test_counts_length_mismatch_rejected(self):
        trainer = SGNSTrainer(10, SGNSConfig(dim=4))
        with pytest.raises(ValueError, match="counts"):
            trainer.fit([np.array([0, 1])], np.ones(5))

    def test_shapes_and_init(self):
        trainer = SGNSTrainer(7, SGNSConfig(dim=5))
        assert trainer.w_in.shape == (7, 5)
        assert trainer.w_out.shape == (7, 5)
        assert np.all(trainer.w_out == 0.0)
        assert np.all(np.abs(trainer.w_in) <= 0.5 / 5)

    def test_deterministic_given_seed(self):
        seqs, counts = forward_chain_corpus(n_seqs=100)
        cfg = SGNSConfig(dim=8, epochs=1, window=2, seed=5, subsample_threshold=0)
        a = SGNSTrainer(30, cfg).fit(seqs, counts)
        b = SGNSTrainer(30, cfg).fit(seqs, counts)
        np.testing.assert_array_equal(a.w_in, b.w_in)
        np.testing.assert_array_equal(a.w_out, b.w_out)

    def test_loss_decreases_over_epochs(self):
        seqs, counts = forward_chain_corpus()
        cfg = SGNSConfig(
            dim=12, epochs=4, window=2, learning_rate=0.05,
            subsample_threshold=0, seed=2,
        )
        trainer = SGNSTrainer(30, cfg).fit(seqs, counts)
        assert trainer.loss_history[-1] < trainer.loss_history[0]

    def test_weights_remain_finite(self):
        seqs, counts = forward_chain_corpus()
        cfg = SGNSConfig(dim=8, epochs=3, window=3, learning_rate=0.2, seed=0)
        trainer = SGNSTrainer(30, cfg).fit(seqs, counts)
        assert np.all(np.isfinite(trainer.w_in))
        assert np.all(np.isfinite(trainer.w_out))

    def test_neighbors_end_up_similar(self):
        """Adjacent chain tokens must be closer than distant ones."""
        seqs, counts = forward_chain_corpus()
        cfg = SGNSConfig(
            dim=16, epochs=5, window=2, learning_rate=0.05,
            subsample_threshold=0, seed=1,
        )
        trainer = SGNSTrainer(30, cfg).fit(seqs, counts)

        def cos(a, b):
            return float(
                trainer.w_in[a]
                @ trainer.w_in[b]
                / (
                    np.linalg.norm(trainer.w_in[a])
                    * np.linalg.norm(trainer.w_in[b])
                )
            )

        near = np.mean([cos(i, i + 1) for i in range(5, 20)])
        far = np.mean([cos(i, i + 14) for i in range(5, 15)])
        assert near > far + 0.2

    def test_directional_model_ranks_successor_first(self):
        """cos(in[q], out[.]) must prefer q+1 over q-1 on a forward chain."""
        seqs, counts = forward_chain_corpus()
        cfg = SGNSConfig(
            dim=16, epochs=6, window=2, learning_rate=0.05,
            subsample_threshold=0, directional=True, seed=1,
        )
        trainer = SGNSTrainer(30, cfg).fit(seqs, counts)

        def norm(m):
            n = np.linalg.norm(m, axis=1, keepdims=True)
            n[n == 0] = 1.0
            return m / n

        w_in = norm(trainer.w_in)
        w_out = norm(trainer.w_out)
        wins = 0
        for q in range(5, 25):
            forward = float(w_in[q] @ w_out[q + 1])
            backward = float(w_in[q] @ w_out[q - 1])
            wins += forward > backward
        assert wins >= 16  # 80% of queries prefer the true direction

    def test_zero_count_tokens_never_negative_sampled(self):
        """A token absent from the corpus keeps a zero output vector."""
        seqs = [np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)] * 50
        counts = np.array([100, 100, 100, 0])
        cfg = SGNSConfig(dim=4, epochs=1, window=1, subsample_threshold=0, seed=0)
        trainer = SGNSTrainer(4, cfg).fit(seqs, counts)
        assert np.all(trainer.w_out[3] == 0.0)


def add_at_scatter(matrix, indices, grads, lr, duplicate_policy="sum",
                   max_step_norm=0.25):
    """The arithmetic reference for ``scatter_update``: the seed kernel
    (``np.unique`` + ``np.add.at``, an unbuffered per-element ufunc
    loop).  Lives here as the oracle; ``src/`` keeps only the CSR
    segment-sum kernel."""
    if len(indices) == 0:
        return
    dtype = matrix.dtype
    unique, inverse, counts = np.unique(
        indices, return_inverse=True, return_counts=True
    )
    step = np.zeros((len(unique), matrix.shape[1]), dtype=dtype)
    np.add.at(step, inverse, grads.astype(dtype, copy=False))
    if duplicate_policy == "mean":
        step /= counts[:, None].astype(dtype)
    step *= dtype.type(lr)
    if max_step_norm is not None:
        norms = np.linalg.norm(step, axis=1, keepdims=True)
        np.maximum(norms, max_step_norm, out=norms)
        step *= dtype.type(max_step_norm) / norms
    matrix[unique] -= step


#: The kernels under test, by the name the suite has always printed for
#: them; ``"segment"`` (sort + CSR segment sum) is the one ``src/`` ships.
KERNELS = [pytest.param(scatter_update, id="segment")]


class TestScatterImplementations:
    """The shipped duplicate-aggregation kernel must agree with the
    ``np.add.at`` reference, and the float32 path must not silently
    upcast (satellite fix)."""

    @staticmethod
    def run_kernel(kernel, dtype, policy="sum"):
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((50, 8)).astype(dtype)
        indices = rng.integers(0, 50, size=200)
        grads = rng.standard_normal((200, 8)).astype(dtype)
        out = matrix.copy()
        kernel(out, indices, grads, lr=0.1, duplicate_policy=policy)
        return out

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("policy", ["sum", "mean"])
    def test_segment_and_reduceat_match_add_at(self, dtype, policy):
        ref = self.run_kernel(add_at_scatter, dtype, policy)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        np.testing.assert_allclose(
            self.run_kernel(scatter_update, dtype, policy), ref,
            atol=tol, rtol=tol,
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_float32_matrix_stays_float32(self, kernel):
        out = self.run_kernel(kernel, np.float32)
        assert out.dtype == np.float32

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_indices_noop(self, kernel):
        matrix = np.ones((4, 3))
        before = matrix.copy()
        kernel(matrix, np.array([], dtype=np.int64), np.zeros((0, 3)), 0.1)
        np.testing.assert_array_equal(matrix, before)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_clipping_matches_add_at(self, kernel):
        rng = np.random.default_rng(3)
        matrix = np.zeros((10, 4))
        indices = rng.integers(0, 10, size=40)
        grads = 100.0 * rng.standard_normal((40, 4))
        ref = matrix.copy()
        out = matrix.copy()
        add_at_scatter(ref, indices, grads, 0.5, max_step_norm=0.25)
        kernel(out, indices, grads, 0.5, max_step_norm=0.25)
        np.testing.assert_allclose(out, ref, atol=1e-12)


class TestDtypeSwitch:
    def test_float32_trainer_params_and_updates(self):
        seqs, counts = forward_chain_corpus(n_seqs=100)
        cfg = SGNSConfig(dim=8, epochs=1, window=2, dtype="float32", seed=0)
        trainer = SGNSTrainer(30, cfg).fit(seqs, counts)
        assert trainer.w_in.dtype == np.float32
        assert trainer.w_out.dtype == np.float32
        assert np.all(np.isfinite(trainer.w_in))

    def test_sigmoid_preserves_float32(self):
        x = np.linspace(-5, 5, 11, dtype=np.float32)
        assert sigmoid(x).dtype == np.float32

    def test_float32_quality_close_to_float64(self):
        seqs, counts = forward_chain_corpus(n_seqs=800)
        losses = {}
        for dt in ("float64", "float32"):
            cfg = SGNSConfig(
                dim=16, epochs=2, window=2, dtype=dt,
                subsample_threshold=0, seed=1,
            )
            losses[dt] = SGNSTrainer(30, cfg).fit(seqs, counts).loss_history[-1]
        assert abs(losses["float32"] - losses["float64"]) < 0.1 * abs(
            losses["float64"]
        )
