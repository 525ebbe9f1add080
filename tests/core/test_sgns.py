"""Unit tests for the SGNS trainer: math helpers, updates, convergence."""

import collections
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro.core.sgns as sgns_module
from repro.core.enrichment import build_enriched_corpus
from repro.core.hogwild import ParallelSGNSTrainer
from repro.core.sampling import AliasSampler, PairGenerator
from repro.core.sgns import (
    OutputGradients,
    SGNSConfig,
    SGNSTrainer,
    fit_prelude,
    lr_at,
    pair_generator,
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


def dense(grads):
    """The output-gradient block ``OutputGradients`` stands for."""
    return grads.coefficients[:, None] * grads.centers[grads.sources]


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
        grad_centers, grad_outputs, _loss = sgns_gradients(*rows)
        b, n, d = rows[2].shape
        block = dense(grad_outputs)
        assert block.shape == (b * (1 + n), d)
        # The output block is the positives' rows, then the negatives'.
        grads = (grad_centers, block[:b], block[b:].reshape(b, n, d))
        for row, grad in zip(rows, grads):
            assert grad.shape == row.shape
            numeric = central_difference(lambda: eq3_batch_loss(*rows), row)
            np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("n_negatives", [1, 5])
    def test_loss_is_the_minibatch_mean(self, n_negatives):
        rows = self.gathered_batch(False, n_negatives)
        loss = sgns_gradients(*rows)[2]
        assert isinstance(loss, float)
        assert loss == pytest.approx(
            eq3_batch_loss(*rows) / len(rows[0]), rel=1e-12
        )

    def test_float32_rows_give_float32_gradients(self):
        rows = [r.astype(np.float32) for r in self.gathered_batch(True, 5)]
        grad_centers, grad_outputs, _loss = sgns_gradients(*rows)
        grads = (grad_centers, grad_outputs.coefficients, dense(grad_outputs))
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


class TestEpochMemory:
    """One epoch's pairs are garbage before the next epoch's are built:
    the batches a fit holds on to are fresh arrays, not views pinning
    the previous epoch."""

    def test_previous_epoch_freed_before_the_next_is_built(self, monkeypatch):
        alive = []
        materialize = PairGenerator.materialize_pairs

        def tracked(self):
            assert all(ref() is None for ref in alive), "previous epoch still alive"
            out = materialize(self)
            alive.extend(weakref.ref(a) for a in (out if isinstance(out, tuple) else (out,)))
            return out

        monkeypatch.setattr(PairGenerator, "materialize_pairs", tracked)
        seqs, counts = forward_chain_corpus(n_seqs=200)
        cfg = SGNSConfig(dim=4, epochs=3, window=2, batch_size=100, seed=0)
        SGNSTrainer(30, cfg).fit(seqs, counts)
        assert len(alive) >= 3


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


# ----------------------------------------------------------------------
# The one SGNS step against its previous form, by bytes
# ----------------------------------------------------------------------


def reference_sigmoid(x):
    """The masked two-branch logistic ``sigmoid`` replaced: boolean
    gathers and scatters, one ``exp`` per branch.  Kept as the oracle
    the branch-free version must match bit for bit."""
    dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    out = np.empty_like(x, dtype=dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_gradients(centers, positives, negatives):
    """The gradient kernel as it was: ``reference_sigmoid``, separate
    positive and negative output gradients, the negatives' outer product
    as a broadcast multiply."""
    pos_sig = reference_sigmoid(np.einsum("bd,bd->b", centers, positives))
    g_pos = pos_sig - 1.0
    neg_sig = reference_sigmoid(np.einsum("bd,bnd->bn", centers, negatives))
    grad_centers = g_pos[:, None] * positives + np.einsum(
        "bn,bnd->bd", neg_sig, negatives
    )
    grad_positives = g_pos[:, None] * centers
    grad_negatives = neg_sig[..., None] * centers[:, None, :]
    with np.errstate(divide="ignore"):
        loss = -np.log(np.maximum(pos_sig, 1e-12)).mean()
        loss += -np.log(np.maximum(1.0 - neg_sig, 1e-12)).sum(axis=1).mean()
    return grad_centers, grad_positives, grad_negatives, float(loss)


def reference_update_batch(self, centers, contexts, sampler, lr):
    """``SGNSTrainer._update_batch`` as it was: fancy-index gathers,
    ``reference_gradients`` and an ``np.concatenate`` of the output
    gradients for the combined ``w_out`` scatter."""
    cfg = self.config
    negatives = sampler.sample((len(centers), cfg.negatives), self._rng)
    grad_w, grad_c_pos, grad_c_neg, loss = reference_gradients(
        self.w_in[centers], self.w_out[contexts], self.w_out[negatives]
    )
    cfg.scatter(self.w_in, centers, grad_w, lr)
    cfg.scatter(
        self.w_out,
        np.concatenate((contexts, negatives.ravel())),
        np.concatenate((grad_c_pos, grad_c_neg.reshape(-1, cfg.dim))),
        lr,
    )
    return loss


def reference_fit(self, sequences, counts, keep_probabilities=None):
    """``SGNSTrainer.fit`` as it was: one loop on the calling thread,
    each step's negatives drawn inside ``self._update_batch``."""
    cfg = self.config
    _, sampler, keep = fit_prelude(
        cfg, self.vocab_size, counts, keep_probabilities
    )
    generator = pair_generator(sequences, cfg, keep, self._rng)
    # Learning-rate schedule over the expected total number of pairs.
    total_pairs = generator.count_pairs() * cfg.epochs
    seen = 0

    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        epoch_pairs = 0
        for centers, contexts in generator.batches(cfg.batch_size):
            lr = lr_at(cfg, seen, total_pairs)
            loss = self._update_batch(centers, contexts, sampler, lr)
            batch = len(centers)
            seen += batch
            self.pairs_trained += batch
            epoch_loss += loss * batch
            epoch_pairs += batch
        mean_loss = epoch_loss / max(epoch_pairs, 1)
        self.loss_history.append(mean_loss)
    return self


def loop_update_batch(self, centers, contexts, sampler, lr):
    """``SGNSTrainer._update_batch`` as it was before steps were planned:
    sampling, gathers, gradients and both scatters (grouping included)
    in one call."""
    cfg = self.config
    negatives = sampler.sample((len(centers), cfg.negatives), self._rng)
    grad_w, grad_out, loss = sgns_gradients(
        np.take(self.w_in, centers, axis=0),
        np.take(self.w_out, contexts, axis=0),
        np.take(self.w_out, negatives, axis=0),
    )
    cfg.scatter(self.w_in, centers, grad_w, lr)
    # Positive-context and negative rows hit the same matrix in the
    # same step; one combined scatter sorts (and clips) them once.
    cfg.scatter(
        self.w_out, np.concatenate((contexts, negatives.ravel())), grad_out, lr
    )
    return loss


class ReferenceTrainer(SGNSTrainer):
    fit = reference_fit
    _update_batch = reference_update_batch


class LoopTrainer(SGNSTrainer):
    fit = reference_fit
    _update_batch = loop_update_batch


def bits(a):
    """The raw bytes of ``a`` as unsigned integers (NaN payloads and
    signed zeros included)."""
    return a.view(np.dtype(f"u{a.dtype.itemsize}"))


class TestSigmoidBitIdentity:
    """``sigmoid`` == ``reference_sigmoid``, bit for bit."""

    DTYPES = [np.float32, np.float64]

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_special_values_and_exp_edges(self, dtype):
        info = np.finfo(dtype)
        edges = [88.7, 88.72, 88.73, 103.97, 104.0, 709.7, 709.8, 745.1, 745.2]
        values = [0.0, np.inf, np.nan, info.max, info.tiny, info.smallest_subnormal,
                  3 * info.smallest_subnormal, *edges]
        x = np.array(values + [-v for v in values], dtype=dtype)
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(bits(sigmoid(x)), bits(reference_sigmoid(x)))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_length_through_the_simd_tails(self, dtype):
        rng = np.random.default_rng(0)
        for n in range(1, 71):
            x = (30 * rng.standard_normal(n)).astype(dtype)
            np.testing.assert_array_equal(bits(sigmoid(x)), bits(reference_sigmoid(x)))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_strided_view_and_2d(self, dtype):
        x = (20 * np.random.default_rng(1).standard_normal((64, 15))).astype(dtype)
        for view in (x[:, ::3], x[::2].T, x):
            np.testing.assert_array_equal(
                bits(sigmoid(view)), bits(reference_sigmoid(view))
            )

    def test_integer_input_becomes_float64(self):
        x = np.arange(-40, 41)
        out = sigmoid(x)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(bits(out), bits(reference_sigmoid(x)))


class TestStepMatchesReference:
    """The step rewrite (branch-free sigmoid, ``np.take`` gathers, output
    gradients in coefficient form, multiplied into the centre rows inside
    the scatter) trains the same bytes as ``reference_update_batch``.

    Raw output gradients are compared with ``np.array_equal``, not by
    bytes: a block may hold ``-0.0`` where another holds ``+0.0``.  The
    scatter's segment sum starts from ``+0.0`` and erases the
    difference, so trained matrices *are* compared by bytes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_raw_gradients(self, dtype):
        rows = [r.astype(dtype) for r in TestSGNSGradients.gathered_batch(True, 5)]
        rows[0][0, 1] = -0.0  # a signed zero in the centres, for the fold
        grad_centers, grad_outputs, loss = sgns_gradients(*rows)
        ref_centers, ref_pos, ref_neg, ref_loss = reference_gradients(*rows)
        grad_outputs = dense(grad_outputs)
        assert grad_outputs.dtype == ref_pos.dtype == dtype
        np.testing.assert_array_equal(bits(grad_centers), bits(ref_centers))
        assert np.array_equal(
            grad_outputs, np.concatenate((ref_pos, ref_neg.reshape(-1, rows[0].shape[1])))
        )
        assert loss == ref_loss

    def test_signed_zero_fold_is_erased_by_the_scatter(self):
        rows = TestSGNSGradients.gathered_batch(False, 2)
        rows[0][:, 0] = -0.0
        _, grad_outputs, _ = sgns_gradients(*rows)
        _, ref_pos, ref_neg, _ = reference_gradients(*rows)
        ref_outputs = np.concatenate((ref_pos, ref_neg.reshape(-1, rows[0].shape[1])))
        folded = np.where(ref_outputs == 0, 0.0, ref_outputs)  # every zero +0.0
        assert np.signbit(ref_outputs[:, 0]).any() and not np.signbit(folded[:, 0]).any()
        tokens = np.random.default_rng(2).integers(0, 4, size=len(ref_outputs))
        for signed_zeros in (ref_outputs, folded):
            ours, theirs = np.ones((4, 4)), np.ones((4, 4))
            scatter_update(ours, tokens, grad_outputs, 0.1)
            scatter_update(theirs, tokens, signed_zeros, 0.1)
            np.testing.assert_array_equal(bits(ours), bits(theirs))

    @pytest.mark.parametrize("max_step_norm", [0.25, None], ids=["clip", "noclip"])
    @pytest.mark.parametrize("policy", ["sum", "mean"])
    @pytest.mark.parametrize("directional", [False, True], ids=["symmetric", "directional"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_multi_batch_fit(self, dtype, directional, policy, max_step_norm):
        seqs, counts = forward_chain_corpus(n_seqs=300, seed=4)
        cfg = SGNSConfig(
            dim=8, epochs=2, window=2, batch_size=64, negatives=3, seed=9,
            subsample_threshold=0, dtype=dtype, directional=directional,
            duplicate_policy=policy, max_step_norm=max_step_norm,
        )
        ours = SGNSTrainer(30, cfg).fit(seqs, counts)
        ref = ReferenceTrainer(30, cfg).fit(seqs, counts)
        assert ours.pairs_trained > 10 * cfg.batch_size  # many steps
        np.testing.assert_array_equal(bits(ours.w_in), bits(ref.w_in))
        np.testing.assert_array_equal(bits(ours.w_out), bits(ref.w_out))
        assert ours.loss_history == ref.loss_history

    def test_incremental_update_continuation(self, fitted_sisg, tiny_split, monkeypatch):
        from repro.core.incremental import incremental_update

        previous = fitted_sisg.model
        cfg = SGNSConfig(dim=12, epochs=1, window=4, negatives=4, seed=2, batch_size=256)
        ours = incremental_update(previous, tiny_split[0], cfg)
        monkeypatch.setattr(SGNSTrainer, "fit", reference_fit)
        monkeypatch.setattr(
            SGNSTrainer, "_update_batch", reference_update_batch, raising=False
        )
        ref = incremental_update(previous, tiny_split[0], cfg)
        np.testing.assert_array_equal(bits(ours.w_in), bits(ref.w_in))
        np.testing.assert_array_equal(bits(ours.w_out), bits(ref.w_out))
        assert not np.array_equal(ours.w_in[: len(previous.w_in)], previous.w_in)


@pytest.fixture(params=["threaded", "inline"])
def plan_path(request, monkeypatch):
    """Fit with the planning thread, or inline as under a one-CPU mask."""
    cpus = 2 if request.param == "threaded" else 1
    monkeypatch.setattr(sgns_module, "available_cpus", lambda: cpus)
    return request.param


def same_fit(ours, ref):
    """Equal trained bits, loss history and post-fit RNG state."""
    return (
        np.array_equal(bits(ours.w_in), bits(ref.w_in))
        and np.array_equal(bits(ours.w_out), bits(ref.w_out))
        and ours.loss_history == ref.loss_history
        and ours._rng.bit_generator.state == ref._rng.bit_generator.state
    )


class NegativesBeforeEpoch(SGNSTrainer):
    """Mutant: each epoch's first negatives are drawn before its pairs."""

    def _plans(self, batches, sampler):
        n = self.config.negatives
        early = sampler.sample((self.config.batch_size, n), self._rng)
        for i, (centers, contexts) in enumerate(batches):
            negatives = (
                early[: len(centers)] if i == 0
                else sampler.sample((len(centers), n), self._rng)
            )
            yield self._plan(centers, contexts, negatives)


class GatheringPlan(SGNSTrainer):
    """Mutant: the plan also gathers the step's ``w_out`` rows."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gathered = collections.deque()

    def _plan(self, centers, contexts, negatives):
        self.gathered.append(
            (np.take(self.w_out, contexts, axis=0), np.take(self.w_out, negatives, axis=0))
        )
        return super()._plan(centers, contexts, negatives)

    def _update(self, plan, lr):
        positives, negatives = self.gathered.popleft()
        time.sleep(0.002)  # the update is the slow side, as at scale
        cfg = self.config
        grad_w, grad_out, loss = sgns_gradients(
            np.take(self.w_in, plan.centers, axis=0), positives, negatives
        )
        cfg.scatter(self.w_in, plan.centers, grad_w, lr, plan.in_groups)
        cfg.scatter(self.w_out, plan.out_tokens, grad_out, lr, plan.out_groups)
        return loss


class TestPlannedFitMatchesLoop:
    """``fit`` plans each step apart from its update, on a producer thread
    or inline; either way it trains what the one-loop fit trains
    (``reference_fit`` + ``loop_update_batch``): the same bits, loss
    history and RNG state afterwards."""

    CASES = {
        "float32": dict(dtype="float32"),
        "directional-mean": dict(directional=True, duplicate_policy="mean"),
        "streamed-pairs": dict(precompute_pairs=False),
        "subsampled-noclip": dict(subsample_threshold=0.05, max_step_norm=None),
    }

    @staticmethod
    def config(**overrides):
        base = dict(
            dim=8, epochs=3, window=2, batch_size=64, negatives=3, seed=7,
            subsample_threshold=0,
        )
        return SGNSConfig(**{**base, **overrides})

    @pytest.mark.parametrize("case", CASES)
    def test_fit(self, plan_path, case):
        seqs, counts = forward_chain_corpus(n_seqs=300, seed=5)
        cfg = self.config(**self.CASES[case])
        ours = SGNSTrainer(30, cfg).fit(seqs, counts)
        ref = LoopTrainer(30, cfg).fit(seqs, counts)
        assert ours.pairs_trained == ref.pairs_trained > 10 * cfg.batch_size
        assert same_fit(ours, ref)

    def test_fit_under_a_short_switch_interval(self, monkeypatch):
        """Thread switches every microsecond: a draw made out of order,
        or a plan handed over twice or lost, changes the bytes."""
        monkeypatch.setattr(sgns_module, "available_cpus", lambda: 2)
        seqs, counts = forward_chain_corpus(n_seqs=300, seed=5)
        cfg = self.config(precompute_pairs=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ours = SGNSTrainer(30, cfg).fit(seqs, counts)
        finally:
            sys.setswitchinterval(interval)
        assert same_fit(ours, LoopTrainer(30, cfg).fit(seqs, counts))

    def test_epochs_are_built_on_the_calling_thread(self, plan_path, monkeypatch):
        caller = threading.get_ident()
        plans_on_caller, epochs_on_caller = [], []
        plan, materialize = SGNSTrainer._plan, PairGenerator.materialize_pairs

        def plan_spy(self, *args):
            plans_on_caller.append(threading.get_ident() == caller)
            return plan(self, *args)

        def materialize_spy(self):
            epochs_on_caller.append(threading.get_ident() == caller)
            return materialize(self)

        monkeypatch.setattr(SGNSTrainer, "_plan", plan_spy)
        monkeypatch.setattr(PairGenerator, "materialize_pairs", materialize_spy)
        seqs, counts = forward_chain_corpus(n_seqs=300, seed=5)
        cfg = self.config()
        SGNSTrainer(30, cfg).fit(seqs, counts)
        assert epochs_on_caller == [True] * cfg.epochs
        if plan_path == "inline":
            assert all(plans_on_caller)
        else:  # each epoch's first plan builds the epoch; the rest run ahead
            assert plans_on_caller[0] and plans_on_caller.count(True) == cfg.epochs

    @pytest.mark.parametrize("mutant", [NegativesBeforeEpoch, GatheringPlan])
    def test_the_oracle_catches_mutants(self, plan_path, mutant):
        seqs, counts = forward_chain_corpus(n_seqs=300, seed=5)
        cfg = self.config()
        ref = LoopTrainer(30, cfg).fit(seqs, counts)
        caught = not same_fit(mutant(30, cfg).fit(seqs, counts), ref)
        # Made inline, a plan is built after the previous update, so a
        # gathering plan reads current rows: only the threaded path can
        # tell it apart, which is why the oracle runs on both.
        assert caught == (mutant is NegativesBeforeEpoch or plan_path == "threaded")


class TestPlanThreadLifecycle:
    """The planning thread is joined before ``fit`` returns, whatever the
    outcome, and every error surfaces from ``fit`` within a deadline."""

    DEADLINE_S = 60.0

    @pytest.fixture(autouse=True)
    def threaded(self, monkeypatch):
        monkeypatch.setattr(sgns_module, "available_cpus", lambda: 2)

    def fit_within_deadline(self, cfg, seqs=None, counts=None):
        """``(trainer or error, threads alive as fit returned - before)``."""
        if seqs is None:
            seqs, counts = forward_chain_corpus(n_seqs=300, seed=5)
        before = threading.active_count()
        outcome = {}

        def run():
            try:
                outcome["result"] = SGNSTrainer(30, cfg).fit(seqs, counts)
            except Exception as exc:
                outcome["result"] = exc
            outcome["extra_threads"] = threading.active_count() - before - 1

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(self.DEADLINE_S)
        assert not caller.is_alive(), "fit did not return within the deadline"
        assert threading.active_count() == before
        return outcome["result"], outcome["extra_threads"]

    CONFIG = dict(
        dim=8, epochs=2, window=2, batch_size=64, negatives=3, seed=7,
        subsample_threshold=0,
    )

    @pytest.mark.parametrize("precompute_pairs", [True, False])
    def test_successful_fit(self, precompute_pairs):
        cfg = SGNSConfig(**self.CONFIG, precompute_pairs=precompute_pairs)
        trainer, extra = self.fit_within_deadline(cfg)
        assert isinstance(trainer, SGNSTrainer) and trainer.pairs_trained > 0
        assert extra == 0

    def test_producer_error_reraises(self, monkeypatch):
        sample, calls = AliasSampler.sample, []

        def failing(self, *args):
            calls.append(threading.get_ident())
            if len(calls) == 3:
                raise RuntimeError("sampler failed")
            return sample(self, *args)

        monkeypatch.setattr(AliasSampler, "sample", failing)
        error, extra = self.fit_within_deadline(SGNSConfig(**self.CONFIG))
        assert isinstance(error, RuntimeError) and str(error) == "sampler failed"
        assert calls[2] != calls[0]  # raised on the producer
        assert extra == 0

    def test_update_error_stops_a_blocked_producer(self, monkeypatch):
        gradients, steps = sgns_module.sgns_gradients, []

        def failing(*args):
            steps.append(None)
            if len(steps) == 3:
                time.sleep(0.2)  # the producer fills the queue and blocks
                raise FloatingPointError("step 3 failed")
            return gradients(*args)

        monkeypatch.setattr(sgns_module, "sgns_gradients", failing)
        error, extra = self.fit_within_deadline(SGNSConfig(**self.CONFIG))
        assert isinstance(error, FloatingPointError) and str(error) == "step 3 failed"
        assert extra == 0

    def test_empty_corpus(self):
        seqs = [np.array([3], dtype=np.int64), np.empty(0, dtype=np.int64)]
        counts = np.bincount(np.concatenate(seqs), minlength=30)
        cfg = SGNSConfig(**self.CONFIG)
        trainer, extra = self.fit_within_deadline(cfg, seqs, counts)
        assert trainer.pairs_trained == 0
        assert trainer.loss_history == [0.0] * cfg.epochs
        assert extra == 0


class TestSeparateScattersSliceTheBlock:
    """The simulated cluster and EGES scatter positives and negatives
    separately: the positives' scatter gets ``grad_outputs[:B]`` and the
    negatives' ``grad_outputs[B:]`` (compared as dense blocks)."""

    @pytest.mark.parametrize("trainer", ["simulation", "eges"])
    def test_halves_reach_their_scatters(self, trainer, tiny_split, monkeypatch):
        import repro.baselines.eges as eges_module
        import repro.core.sgns as sgns_module
        import repro.distributed.engine as engine_module

        events = []

        def spy_gradients(centers, positives, negatives):
            out = sgns_gradients(centers, positives, negatives)
            events.append(("step", len(centers), dense(out[1])))
            return out

        def spy_scatter(matrix, indices, grads, *args, **kwargs):
            if len(indices):
                block = dense(grads) if isinstance(grads, OutputGradients) else grads
                events.append(("scatter", len(indices), np.array(block)))
            scatter_update(matrix, indices, grads, *args, **kwargs)

        if trainer == "simulation":
            monkeypatch.setattr(engine_module, "sgns_gradients", spy_gradients)
            monkeypatch.setattr(sgns_module, "scatter_update", spy_scatter)
            corpus = build_enriched_corpus(
                tiny_split[0], with_si=False, with_user_types=False
            )
            cfg = SGNSConfig(dim=4, epochs=1, window=1, batch_size=256)
            # No replicated rows, so each half is one scatter.
            train_distributed(corpus, cfg, n_workers=2, hot_threshold=1.0)
            skip = 0
        else:
            from repro.baselines.eges import EGES, EGESConfig

            monkeypatch.setattr(eges_module, "sgns_gradients", spy_gradients)
            monkeypatch.setattr(eges_module, "scatter_update", spy_scatter)
            EGES(EGESConfig(dim=4, epochs=1, walks_per_node=1, batch_size=256)).fit(
                tiny_split[0]
            )
            skip = 1  # the constituent embeddings are scattered first
        steps = [i for i, event in enumerate(events) if event[0] == "step"]
        assert len(steps) > 2
        for i in steps:
            _, b, block = events[i]
            positives, negatives = events[i + 1 + skip], events[i + 2 + skip]
            assert positives[1] == b
            assert np.array_equal(positives[2], block[:b])
            assert negatives[1] == len(block) - b
            assert np.array_equal(negatives[2], block[b:])


def reference_worker_loop(task, w_in, w_out, sampler, cfg, hot_row, sync_interval, stats):
    """The Hogwild ``_worker_loop`` as it was: fancy-index gathers,
    ``reference_gradients`` and an ``np.concatenate`` of the output
    gradients (CPU pinning left out)."""
    from repro.core.hogwild import _BLOCK_PAIRS

    rng = np.random.default_rng(task.neg_seed)
    dim, negs, batch = cfg.dim, cfg.negatives, cfg.batch_size
    block = max(batch, _BLOCK_PAIRS)
    scatter = cfg.scatter
    sync = task.sync
    if sync is not None:
        base = np.array(sync.pull(), dtype=w_out.dtype, copy=True)
        replica = base.copy()
        delta = np.empty_like(base)

    def merge_replica():
        np.subtract(replica, base, out=delta)
        merged = sync.merge(delta)
        base[:] = merged
        replica[:] = merged

    seen = since_sync = 0
    for epoch, (epoch_centers, epoch_contexts) in enumerate(task.feed.epochs()):
        epoch_loss, epoch_pairs, n_pairs = 0.0, 0, len(epoch_centers)
        for bstart in range(0, n_pairs, block):
            bend = min(bstart + block, n_pairs)
            blk_centers = epoch_centers[bstart:bend]
            blk_contexts = epoch_contexts[bstart:bend]
            nb = bend - bstart
            negatives = sampler.sample((nb, negs), rng)
            if sync is not None:
                blk_hot_pos = hot_row[blk_contexts]
                blk_hot_neg = hot_row[negatives.ravel()]
            for s in range(0, nb, batch):
                e = min(s + batch, nb)
                centers, contexts = blk_centers[s:e], blk_contexts[s:e]
                neg_flat = negatives[s:e].reshape(-1)
                n_mb = e - s
                lr = lr_at(cfg, seen, task.total_pairs)
                c_pos = w_out[contexts]
                c_neg = w_out[neg_flat]
                if sync is not None:
                    h_pos = blk_hot_pos[s:e]
                    h_neg = blk_hot_neg[s * negs : e * negs]
                    m_pos, m_neg = h_pos >= 0, h_neg >= 0
                    c_pos[m_pos] = replica[h_pos[m_pos]]
                    c_neg[m_neg] = replica[h_neg[m_neg]]
                grad_w, grad_c_pos, grad_c_neg, loss = reference_gradients(
                    w_in[centers], c_pos, c_neg.reshape(n_mb, negs, dim)
                )
                scatter(w_in, centers, grad_w, lr)
                out_tokens = np.concatenate((contexts, neg_flat))
                out_grads = np.concatenate((grad_c_pos, grad_c_neg.reshape(-1, dim)))
                if sync is not None:
                    hot = np.concatenate((m_pos, m_neg))
                    if hot.any():
                        hot_sel = np.concatenate((h_pos, h_neg))
                        scatter(replica, hot_sel[hot], out_grads[hot], lr)
                        out_tokens, out_grads = out_tokens[~hot], out_grads[~hot]
                scatter(w_out, out_tokens, out_grads, lr)
                seen += n_mb
                epoch_pairs += n_mb
                epoch_loss += loss * n_mb
                since_sync += 1
                if sync is not None and since_sync >= sync_interval:
                    merge_replica()
                    since_sync = 0
        stats[task.worker_id, epoch, 0] = epoch_loss / max(epoch_pairs, 1)
        stats[task.worker_id, epoch, 1] = epoch_pairs
    if sync is not None:
        merge_replica()
        sync.close()


class TestHogwildWorkerMatchesReference:
    """The one-worker Hogwild engine runs its worker in process; with the
    rewritten step it trains the bytes ``reference_worker_loop`` trains,
    with and without hot-row replicas."""

    @pytest.mark.parametrize("hot_threshold", [0.035, 2.0], ids=["hot-rows", "no-hot-rows"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_one_worker_fit(self, dtype, hot_threshold, monkeypatch):
        import repro.core.hogwild as hogwild_module

        seqs, counts = forward_chain_corpus(n_seqs=300, seed=6)
        cfg = SGNSConfig(
            dim=8, epochs=2, window=2, batch_size=64, negatives=3, seed=4,
            subsample_threshold=0, dtype=dtype,
        )

        def fit():
            return ParallelSGNSTrainer(
                30, cfg, n_workers=1, pair_feed="inline",
                hot_threshold=hot_threshold, sync_interval=3,
            ).fit(seqs, counts)

        ours = fit()
        monkeypatch.setattr(hogwild_module, "_worker_loop", reference_worker_loop)
        ref = fit()
        assert (0 < ours.n_hot < 30) == (hot_threshold < 1)
        np.testing.assert_array_equal(bits(ours.w_in), bits(ref.w_in))
        np.testing.assert_array_equal(bits(ours.w_out), bits(ref.w_out))
        assert ours.loss_history == ref.loss_history
