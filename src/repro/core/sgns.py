"""Single-machine Skip-Gram with Negative Sampling (Eq. 3 of the paper).

The trainer maximizes::

    sum_{(i,j) in D_p} log sigmoid(w_i . c_j)
      + sum_{(i,t) in D_n} log sigmoid(-w_i . c_t)

with minibatched SGD over vectorized NumPy updates.  Conventions follow
the reference word2vec implementation: input vectors initialized uniformly
in ``[-0.5/d, 0.5/d)``, output vectors initialized to zero, and a linear
learning-rate decay over the whole training run (:func:`lr_at`).

There is one SGNS step in this repository and it lives here.  The
Hogwild workers (:mod:`repro.core.hogwild`), the simulated TNS/ATNS
cluster (:mod:`repro.distributed.engine`) and the EGES baseline
(:mod:`repro.baselines.eges`) change *where* an update runs or what the
centre vector is, never what the step computes: they gather their own
rows, then call the same :func:`sgns_gradients`, :func:`lr_at` and
:func:`scatter_update` as :class:`SGNSTrainer`, and start from the same
:func:`fit_prelude` / :func:`pair_generator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.sampling import (
    AliasSampler,
    PairGenerator,
    build_noise_distribution,
    subsample_keep_probabilities,
)
from repro.utils import (
    ensure_rng,
    get_logger,
    require_in_range,
    require_positive,
)

logger = get_logger("core.sgns")


@dataclass
class SGNSConfig:
    """Hyper-parameters of the SGNS trainer.

    Attributes mirror Section IV-A of the paper: the production setting is
    ``dim=128, epochs=2, negatives=20, window adjusted to cover whole
    sequences``; scaled-down defaults here keep tests fast.
    """

    dim: int = 32
    window: int = 5
    negatives: int = 5
    epochs: int = 2
    learning_rate: float = 0.025
    min_lr_fraction: float = 1e-2
    batch_size: int = 4096
    subsample_threshold: float = 1e-3
    noise_alpha: float = 0.75
    directional: bool = False
    dynamic_window: bool = True
    duplicate_policy: str = "sum"
    max_step_norm: float | None = 0.25
    seed: int = 0
    #: Parameter/compute dtype.  ``float32`` halves memory traffic on
    #: the gather/einsum/scatter hot path (the updates are noise-bound
    #: SGD steps, far above float32 resolution); ``float64`` remains the
    #: default for bit-compatibility with the original kernels.  Warm
    #: starts (:func:`~repro.core.incremental.incremental_update`, hence
    #: every refresh cycle and stream window) train in it too.
    dtype: str = "float64"
    #: Materialize each epoch's (center, context) arrays in one
    #: vectorized pass instead of streaming the per-sequence Python loop
    #: (see :class:`repro.core.sampling.PairGenerator`).
    precompute_pairs: bool = True
    #: Globally shuffle materialized pairs each epoch (precompute mode
    #: only); better SGD mixing than offset-major order.
    shuffle_pairs: bool = True

    def validate(self) -> None:
        """Raise ``ValueError`` on any inconsistent setting."""
        require_positive(self.dim, "dim")
        require_positive(self.window, "window")
        require_positive(self.negatives, "negatives")
        require_positive(self.epochs, "epochs")
        require_positive(self.learning_rate, "learning_rate")
        require_in_range(self.min_lr_fraction, "min_lr_fraction", 0.0, 1.0)
        require_positive(self.batch_size, "batch_size")
        require_in_range(self.noise_alpha, "noise_alpha", 0.0, 1.0)
        if self.duplicate_policy not in ("mean", "sum"):
            raise ValueError(
                "duplicate_policy must be 'mean' or 'sum', got"
                f" {self.duplicate_policy!r}"
            )
        if self.max_step_norm is not None:
            require_positive(self.max_step_norm, "max_step_norm")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(
                f"dtype must be 'float32' or 'float64', got {self.dtype!r}"
            )

    @property
    def param_dtype(self) -> np.dtype:
        """The parameter matrices' NumPy dtype."""
        return np.dtype(self.dtype)

    def scatter(
        self, matrix: np.ndarray, indices: np.ndarray, grads: np.ndarray, lr: float
    ) -> None:
        """:func:`scatter_update` under this config's duplicate policy and clip."""
        scatter_update(
            matrix, indices, grads, lr, self.duplicate_policy, self.max_step_norm
        )


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (dtype-preserving)."""
    dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    out = np.empty_like(x, dtype=dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sgns_gradients(
    centers: np.ndarray, positives: np.ndarray, negatives: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Eq. 3 forward/backward over already-gathered rows.

    ``centers`` and ``positives`` are ``(B, d)``, ``negatives`` is
    ``(B, n, d)``: the centre vector, its positive context's output
    vector and its ``n`` sampled negatives' output vectors, per pair.
    Returns the gradients of the summed negative log-likelihood with
    respect to each input, in the same shapes, and the minibatch *mean*
    loss.  Pure: which rows were gathered, from which matrix or replica,
    and how the gradients are scattered back is the caller's business.
    """
    pos_sig = sigmoid(np.einsum("bd,bd->b", centers, positives))
    g_pos = pos_sig - 1.0  # d(-log sigmoid(x))/dx
    neg_sig = sigmoid(np.einsum("bd,bnd->bn", centers, negatives))
    # d(-log sigmoid(-x))/dx is sigmoid(x) itself.
    grad_centers = g_pos[:, None] * positives + np.einsum(
        "bn,bnd->bd", neg_sig, negatives
    )
    grad_positives = g_pos[:, None] * centers
    grad_negatives = neg_sig[..., None] * centers[:, None, :]
    with np.errstate(divide="ignore"):
        loss = -np.log(np.maximum(pos_sig, 1e-12)).mean()
        loss += -np.log(np.maximum(1.0 - neg_sig, 1e-12)).sum(axis=1).mean()
    return grad_centers, grad_positives, grad_negatives, float(loss)


def lr_at(config, seen: int, total: int) -> float:
    """Linear decay from ``learning_rate`` to ``min_lr_fraction`` of it.

    ``seen`` of an expected ``total`` pairs have been trained; past
    ``total`` the rate stays at its floor.  ``config`` is anything with
    ``learning_rate`` and ``min_lr_fraction``.
    """
    lr = config.learning_rate
    min_lr = lr * config.min_lr_fraction
    return lr + (min_lr - lr) * min(seen / max(total, 1), 1.0)


def keep_probabilities_for(
    config: SGNSConfig, counts: np.ndarray, override: np.ndarray | None = None
) -> np.ndarray:
    """Per-token subsampling keep probabilities for a fit over ``counts``.

    ``override`` (one probability per token) wins over the word2vec
    formula at ``config.subsample_threshold``.
    """
    if override is None:
        return subsample_keep_probabilities(counts, config.subsample_threshold)
    if len(override) != len(counts):
        raise ValueError(
            f"keep_probabilities has length {len(override)}, expected"
            f" {len(counts)}"
        )
    return np.asarray(override, dtype=np.float64)


def fit_prelude(
    config: SGNSConfig,
    vocab_size: int,
    counts: np.ndarray,
    keep_probabilities: np.ndarray | None = None,
) -> tuple[np.ndarray, AliasSampler, np.ndarray]:
    """What every fit derives from the corpus counts before its first step.

    Returns ``(counts, sampler, keep)``: the counts as ``int64``, the
    alias sampler over the ``noise_alpha`` noise distribution, and the
    resolved subsampling keep probabilities.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if len(counts) != vocab_size:
        raise ValueError(
            f"counts has length {len(counts)}, expected {vocab_size}"
        )
    sampler = AliasSampler(build_noise_distribution(counts, config.noise_alpha))
    return counts, sampler, keep_probabilities_for(config, counts, keep_probabilities)


def pair_generator(
    sequences: list[np.ndarray],
    config: SGNSConfig,
    keep: np.ndarray | None,
    seed: "int | np.random.Generator | None",
) -> PairGenerator:
    """The :class:`PairGenerator` a config asks for over ``sequences``."""
    return PairGenerator(
        sequences,
        window=config.window,
        directional=config.directional,
        keep_probabilities=keep,
        dynamic_window=config.dynamic_window,
        seed=seed,
        precompute=config.precompute_pairs,
        shuffle=config.shuffle_pairs,
    )


def scatter_update(
    matrix: np.ndarray,
    indices: np.ndarray,
    grads: np.ndarray,
    lr: float,
    duplicate_policy: str = "sum",
    max_step_norm: float | None = 0.25,
) -> None:
    """Apply ``matrix[indices] -= lr * grads`` with duplicate handling.

    Sequential word2vec updates one pair at a time: a token occurring
    ``k`` times moves by ``k`` *fresh* gradients, each re-evaluated after
    the previous step, so hot tokens never overshoot.  A vectorized batch
    evaluates all ``k`` gradients at the same stale weights; naively
    summing them can overshoot catastrophically for very hot tokens (a
    leaf-category SI token appears hundreds of times in one batch,
    multiplying the effective step by hundreds).

    The default policy ``"sum"`` keeps the word2vec semantics but clips
    the *aggregated* per-token step to ``max_step_norm`` — mimicking the
    self-limiting behaviour of sequential updates.  Policy ``"mean"``
    averages duplicate gradients instead (smaller steps; mainly useful
    for experiments).  Shared by the SGNS trainer, the EGES baseline, the
    Hogwild workers and the distributed simulation, so all trainers move
    parameters the same way.

    Duplicates are aggregated by sorting the indices once and
    segment-summing the gradient rows with a CSR indicator matmul (one
    sparse GEMM over the batch); ``tests/core/test_sgns.py`` holds the
    ``np.add.at`` arithmetic reference it is checked against.  The work
    is done in ``matrix.dtype`` — gradients are cast, not the matrix —
    so the float32 path never silently upcasts.
    """
    if len(indices) == 0:
        return
    dtype = matrix.dtype
    order = np.argsort(indices)
    sorted_idx = indices[order]
    boundary = np.empty(len(sorted_idx), dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    unique = sorted_idx[starts]
    row_ends = np.append(starts, len(order))
    # Row i of the indicator selects the batch rows of unique[i]; the
    # matmul is the segment sum without gathering grads.
    indicator = sparse.csr_matrix(
        (np.ones(len(order), dtype=dtype), order, row_ends),
        shape=(len(starts), len(order)),
    )
    step = indicator @ np.asarray(grads, dtype=dtype)
    if duplicate_policy == "mean":
        step /= np.diff(row_ends)[:, None].astype(dtype)
    step *= dtype.type(lr)
    if max_step_norm is not None:
        norms = np.linalg.norm(step, axis=1, keepdims=True)
        np.maximum(norms, max_step_norm, out=norms)
        step *= dtype.type(max_step_norm) / norms
    matrix[unique] -= step


class SGNSTrainer:
    """Trains input/output embeddings over an encoded corpus.

    Parameters
    ----------
    vocab_size:
        Number of tokens; fixes the embedding matrix shapes.
    config:
        Hyper-parameters (validated eagerly).

    Attributes
    ----------
    w_in, w_out:
        The input and output embedding matrices, ``(vocab_size, dim)``.
        ``w_out`` is what the paper calls the output vectors ``v'``; the
        directional similarity uses both matrices.
    """

    def __init__(self, vocab_size: int, config: SGNSConfig | None = None) -> None:
        require_positive(vocab_size, "vocab_size")
        self.config = config or SGNSConfig()
        self.config.validate()
        self.vocab_size = vocab_size
        rng = ensure_rng(self.config.seed)
        d = self.config.dim
        dtype = self.config.param_dtype
        self.w_in = (((rng.random((vocab_size, d))) - 0.5) / d).astype(dtype)
        self.w_out = np.zeros((vocab_size, d), dtype=dtype)
        self._rng = rng
        self.loss_history: list[float] = []
        self.pairs_trained = 0

    def fit(
        self,
        sequences: list[np.ndarray],
        counts: np.ndarray,
        keep_probabilities: np.ndarray | None = None,
    ) -> "SGNSTrainer":
        """Run ``epochs`` passes of SGD over ``sequences``.

        Parameters
        ----------
        sequences:
            Encoded sequences; token ids must be < ``vocab_size``.
        counts:
            Corpus frequency per token id, used for the noise
            distribution and subsampling.
        keep_probabilities:
            Optional per-token subsampling keep probability, overriding
            the one derived from ``counts`` and
            ``config.subsample_threshold``.  Used by SISG to subsample SI
            tokens more aggressively than items (Section III-C of the
            paper; see :func:`repro.core.sisg.kind_aware_keep`).
        """
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
            logger.info(
                "epoch %d/%d: %d pairs, mean loss %.4f",
                epoch + 1,
                cfg.epochs,
                epoch_pairs,
                mean_loss,
            )
        return self

    def _update_batch(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        sampler: AliasSampler,
        lr: float,
    ) -> float:
        """One SGD step over a batch of positive pairs; returns mean loss."""
        cfg = self.config
        negatives = sampler.sample((len(centers), cfg.negatives), self._rng)
        grad_w, grad_c_pos, grad_c_neg, loss = sgns_gradients(
            self.w_in[centers], self.w_out[contexts], self.w_out[negatives]
        )
        cfg.scatter(self.w_in, centers, grad_w, lr)
        # Positive-context and negative rows hit the same matrix in the
        # same step; one combined scatter sorts (and clips) them once.
        cfg.scatter(
            self.w_out,
            np.concatenate((contexts, negatives.ravel())),
            np.concatenate((grad_c_pos, grad_c_neg.reshape(-1, cfg.dim))),
            lr,
        )
        return loss
