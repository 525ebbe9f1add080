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

import contextlib
import functools
import queue
import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy import sparse

from repro.core.sampling import (
    AliasSampler,
    PairGenerator,
    build_noise_distribution,
    subsample_keep_probabilities,
)
from repro.utils import (
    available_cpus,
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
        self,
        matrix: np.ndarray,
        indices: np.ndarray,
        grads: "np.ndarray | OutputGradients",
        lr: float,
        groups: "ScatterGroups | None" = None,
    ) -> None:
        """:func:`scatter_update` under this config's duplicate policy and clip."""
        scatter_update(
            matrix, indices, grads, lr, self.duplicate_policy, self.max_step_norm,
            groups,
        )


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (dtype-preserving).

    Branch-free: with ``e = exp(-|x|)`` every element is ``1 / (1 + e)``
    for ``x >= 0`` and ``e / (1 + e)`` otherwise -- the same two IEEE
    expressions as a masked two-branch form, without its boolean
    gathers and scatters.  ``-|x|`` is taken as ``minimum(x, -x)``, which
    returns a NaN ``x`` itself (sign bit included), so NaNs come out as
    the two-branch form's do.  Integer input gives float64.
    """
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, x.dtype.type(1), e)
    e += 1
    out /= e
    return out


class OutputGradients:
    """A step's output-row gradients in coefficient form.

    Row ``j`` of the gradient block is ``coefficients[j] *
    centers[sources[j]]``; the block itself is never written.
    :func:`scatter_update` multiplies the coefficients into the centre
    rows inside its segment sum, and indexing (a slice, or positions as
    :class:`HotRowSplit` takes them) selects block rows without copying
    any vector.
    """

    __slots__ = ("coefficients", "centers", "sources")

    def __init__(
        self, coefficients: np.ndarray, centers: np.ndarray, sources: np.ndarray
    ) -> None:
        self.coefficients = coefficients
        self.centers = centers
        self.sources = sources

    def __len__(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, rows) -> "OutputGradients":
        return OutputGradients(
            self.coefficients[rows], self.centers, self.sources[rows]
        )


@functools.lru_cache(maxsize=8)
def _block_sources(b: int, n: int) -> np.ndarray:
    """Centre row of each output row of a ``(b, n)`` step, in block order."""
    rows = np.arange(b)
    sources = np.concatenate((rows, np.repeat(rows, n)))
    sources.flags.writeable = False
    return sources


def sgns_gradients(
    centers: np.ndarray, positives: np.ndarray, negatives: np.ndarray
) -> tuple[np.ndarray, OutputGradients, float]:
    """Eq. 3 forward/backward over already-gathered rows.

    ``centers`` and ``positives`` are ``(B, d)``, ``negatives`` is
    ``(B, n, d)``: the centre vector, its positive context's output
    vector and its ``n`` sampled negatives' output vectors, per pair.
    Returns ``(grad_centers, grad_outputs, loss)``: the gradient of the
    summed negative log-likelihood with respect to ``centers``, the
    ``B * (1 + n)`` output rows' gradients -- the positives' ``B`` rows
    first, then the negatives' rows in ``(b, n)`` order, the layout of
    ``concatenate((contexts, negatives.ravel()))`` -- and the minibatch
    *mean* loss.  Every output row's gradient is its coefficient (``g_pos``
    or ``sigmoid`` of the negative's logit) times its pair's centre row,
    so ``grad_outputs`` is :class:`OutputGradients` over ``centers``.
    Pure: which rows were gathered, from which matrix or replica, and how
    the gradients are scattered back is the caller's business.

    The byte rule: every floating-point sum here associates as it always
    has (the einsum contractions are not matmuls), and each output
    gradient element is one product ``coefficient * centre``, rounded
    once, wherever it is formed.
    """
    pos_sig = sigmoid(np.einsum("bd,bd->b", centers, positives))
    g_pos = pos_sig - 1.0  # d(-log sigmoid(x))/dx
    neg_sig = sigmoid(np.einsum("bd,bnd->bn", centers, negatives))
    # d(-log sigmoid(-x))/dx is sigmoid(x) itself.
    grad_centers = g_pos[:, None] * positives + np.einsum(
        "bn,bnd->bd", neg_sig, negatives
    )
    b, n, _ = negatives.shape
    grad_outputs = OutputGradients(
        np.concatenate((g_pos, neg_sig.ravel())), centers, _block_sources(b, n)
    )
    with np.errstate(divide="ignore"):
        loss = -np.log(np.maximum(pos_sig, 1e-12)).mean()
        loss += -np.log(np.maximum(1.0 - neg_sig, 1e-12)).sum(axis=1).mean()
    return grad_centers, grad_outputs, float(loss)


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


class ScatterGroups:
    """How :func:`scatter_update` sums a step's gradient rows per token.

    ``order`` sorts the indices, ``unique`` holds each distinct token
    once, ``row_ends`` closes each token's segment of the sorted rows,
    and ``indicator`` is the CSR matrix whose row ``i`` selects the
    gradient rows of ``unique[i]``.  Without ``sources`` the gradients
    are a dense block: the columns are ``order`` and the data ones.
    With ``sources`` they are :class:`OutputGradients` over
    ``n_centers`` centre rows: the columns are ``sources[order]`` and
    the data, the coefficients in sort order, are set by each scatter.
    Nothing here reads a weight, so a trainer may build it before the
    step that uses it (:meth:`SGNSTrainer.fit`).
    """

    __slots__ = ("order", "unique", "row_ends", "indicator")

    def __init__(
        self,
        indices: np.ndarray,
        dtype: np.dtype,
        sources: "np.ndarray | None" = None,
        n_centers: int = 0,
    ) -> None:
        order = np.argsort(indices)
        sorted_idx = indices[order]
        boundary = np.empty(len(sorted_idx), dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        self.order = order
        self.unique = sorted_idx[starts]
        self.row_ends = np.append(starts, len(order))
        if sources is None:
            data, columns, width = np.ones(len(order), dtype), order, len(order)
        else:
            data, columns, width = np.empty(len(order), dtype), sources[order], n_centers
        self.indicator = sparse.csr_matrix(
            (data, columns, self.row_ends), shape=(len(starts), width)
        )


def scatter_update(
    matrix: np.ndarray,
    indices: np.ndarray,
    grads: "np.ndarray | OutputGradients",
    lr: float,
    duplicate_policy: str = "sum",
    max_step_norm: float | None = 0.25,
    groups: ScatterGroups | None = None,
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
    sparse GEMM over the batch, :class:`ScatterGroups`);
    ``tests/core/test_sgns.py`` holds the ``np.add.at`` arithmetic
    reference it is checked against.  ``groups`` is that grouping built
    ahead of time for these ``indices`` (and, for output gradients,
    these sources) into a matrix of this dtype; without it the grouping
    is computed here.  ``grads`` in :class:`OutputGradients` form puts
    the coefficients in the CSR data and the centre rows in its columns:
    each product is formed once, in the same place of the same
    per-segment sum, so the step equals the dense block's to the byte.
    The work is done in ``matrix.dtype`` — gradients are cast, not the
    matrix — so the float32 path never silently upcasts.
    """
    if len(indices) == 0:
        return
    dtype = matrix.dtype
    coefficient_form = isinstance(grads, OutputGradients)
    if groups is None and coefficient_form:
        groups = ScatterGroups(indices, dtype, grads.sources, len(grads.centers))
    elif groups is None:
        groups = ScatterGroups(indices, dtype)
    indicator = groups.indicator
    if coefficient_form:
        indicator.data = grads.coefficients[groups.order].astype(dtype, copy=False)
        rows = grads.centers
    else:
        rows = grads
    step = indicator @ np.asarray(rows, dtype=dtype)
    if duplicate_policy == "mean":
        step /= np.diff(groups.row_ends)[:, None].astype(dtype)
    step *= dtype.type(lr)
    if max_step_norm is not None:
        # np.linalg.norm's own body for axis=1, without its wrapper.
        norms = np.sqrt(np.add.reduce(step * step, axis=1, keepdims=True))
        np.maximum(norms, max_step_norm, out=norms)
        step *= dtype.type(max_step_norm) / norms
    matrix[groups.unique] -= step


class HotRowSplit:
    """Which of a step's output rows live in a hot-row replica, by position.

    ``slots`` holds, per output token of a step, the token's row in the
    worker's replica of the hot set (ATNS, Sec. III-A), or ``-1`` for a
    row that lives in the shared matrix.  The split is kept as integer
    positions, not a boolean mask, so :meth:`gather` moves rows with
    ``np.take`` and :meth:`scatter` selects gradients by position instead
    of masked copies; element order is the mask form's, so the trained
    bytes are too.  Used by the Hogwild worker and the simulated ATNS
    cluster.
    """

    __slots__ = ("hot", "cold", "hot_slots")

    def __init__(self, slots: np.ndarray) -> None:
        is_hot = slots >= 0
        #: Positions of replica rows, and their replica row ids.
        self.hot = np.flatnonzero(is_hot)
        self.hot_slots = np.take(slots, self.hot)
        #: Positions of shared-matrix rows; ``None`` when every row is.
        self.cold = np.flatnonzero(~is_hot) if len(self.hot) else None

    def gather(
        self, matrix: np.ndarray, replica: np.ndarray, tokens: np.ndarray
    ) -> np.ndarray:
        """The rows of ``tokens`` as the worker sees them (replica for hot)."""
        rows = np.take(matrix, tokens, axis=0)
        if len(self.hot):
            rows[self.hot] = np.take(replica, self.hot_slots, axis=0)
        return rows

    def scatter(
        self,
        scatter,
        matrix: np.ndarray,
        replica: np.ndarray,
        tokens: np.ndarray,
        grads: "np.ndarray | OutputGradients",
        lr: float,
    ) -> None:
        """``scatter`` the hot rows' gradients into ``replica``, the rest
        into ``matrix`` (``scatter`` is :meth:`SGNSConfig.scatter`)."""
        if len(self.hot):
            scatter(replica, self.hot_slots, grads[self.hot], lr)
            tokens = np.take(tokens, self.cold)
            grads = grads[self.cold]
        scatter(matrix, tokens, grads, lr)


@dataclass(slots=True)
class StepPlan:
    """What one :class:`SGNSTrainer` step needs that reads no weight.

    The batch (``centers``, ``contexts``), its ``(B, n)`` ``negatives``,
    the ``w_out`` rows the step writes (``out_tokens``: contexts, then
    negatives in ``(b, n)`` order) and both scatters' grouping.
    """

    centers: np.ndarray
    contexts: np.ndarray
    negatives: np.ndarray
    out_tokens: np.ndarray
    in_groups: ScatterGroups
    out_groups: ScatterGroups


#: Finished plans the producer thread may hold ahead of the step.
_PLANS_AHEAD = 2

_END = object()


def _run_ahead(items: Iterator) -> Iterator:
    """Yield ``items``, computing all but the first on a producer thread.

    The first item is computed on the calling thread (for a fit, that
    builds the epoch, so its buffers and its trace span stay with the
    caller).  A producer thread then runs the rest of the iterator, at
    most ``_PLANS_AHEAD`` finished items ahead, through a bounded
    queue, and an error it raises is re-raised here.  Closing the
    generator -- the consumer finished or failed -- stops the producer,
    even one blocked on a full queue, and joins it before ``close()``
    returns.
    """
    first = next(items, _END)
    if first is _END:
        return
    yield first
    handoff: queue.Queue = queue.Queue(maxsize=_PLANS_AHEAD)
    stop = threading.Event()

    def produce() -> None:
        try:
            for item in items:
                handoff.put((item, None))
                if stop.is_set():
                    return
            handoff.put((_END, None))
        except BaseException as exc:  # re-raised on the consumer
            handoff.put((_END, exc))

    producer = threading.Thread(target=produce, name="sgns-plan", daemon=True)
    producer.start()
    try:
        while True:
            item, exc = handoff.get()
            if exc is not None:
                raise exc
            if item is _END:
                return
            yield item
    finally:
        stop.set()
        # A producer blocked on the full queue wakes, puts once into the
        # room this makes, sees ``stop`` and returns.
        while True:
            try:
                handoff.get_nowait()
            except queue.Empty:
                break
        producer.join()


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

        Each step is a :meth:`_plan`, everything that reads no weight,
        and an :meth:`_update`.  With a spare CPU in the affinity mask a
        producer thread plans the next steps while this thread updates
        (:func:`_run_ahead`); with one CPU the same plans are made
        inline.  The RNG draws come in one order either way -- an
        epoch's pairs, then its batches' negatives -- so both train the
        same bytes.
        """
        cfg = self.config
        _, sampler, keep = fit_prelude(
            cfg, self.vocab_size, counts, keep_probabilities
        )
        generator = pair_generator(sequences, cfg, keep, self._rng)
        # Learning-rate schedule over the expected total number of pairs.
        total_pairs = generator.count_pairs() * cfg.epochs
        seen = 0
        threaded = available_cpus() > 1

        for epoch in range(cfg.epochs):
            epoch_loss = 0.0
            epoch_pairs = 0
            plans = self._plans(generator.batches(cfg.batch_size), sampler)
            with contextlib.closing(_run_ahead(plans) if threaded else plans) as steps:
                for plan in steps:
                    lr = lr_at(cfg, seen, total_pairs)
                    loss = self._update(plan, lr)
                    batch = len(plan.centers)
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

    def _plans(
        self, batches: Iterator[tuple[np.ndarray, np.ndarray]], sampler: AliasSampler
    ) -> Iterator[StepPlan]:
        """A :meth:`_plan` per batch, each batch's negatives drawn after it."""
        n = self.config.negatives
        for centers, contexts in batches:
            negatives = sampler.sample((len(centers), n), self._rng)
            yield self._plan(centers, contexts, negatives)

    def _plan(
        self, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray
    ) -> StepPlan:
        """The weight-free part of a step over one batch of positive pairs."""
        dtype = self.config.param_dtype
        # Positive-context and negative rows hit the same matrix in the
        # same step; one combined scatter sorts (and clips) them once.
        out_tokens = np.concatenate((contexts, negatives.ravel()))
        sources = _block_sources(*negatives.shape)
        return StepPlan(
            centers,
            contexts,
            negatives,
            out_tokens,
            ScatterGroups(centers, dtype),
            ScatterGroups(out_tokens, dtype, sources, len(centers)),
        )

    def _update(self, plan: StepPlan, lr: float) -> float:
        """One SGD step on the current weights; returns the mean loss."""
        cfg = self.config
        grad_w, grad_out, loss = sgns_gradients(
            np.take(self.w_in, plan.centers, axis=0),
            np.take(self.w_out, plan.contexts, axis=0),
            np.take(self.w_out, plan.negatives, axis=0),
        )
        cfg.scatter(self.w_in, plan.centers, grad_w, lr, plan.in_groups)
        cfg.scatter(self.w_out, plan.out_tokens, grad_out, lr, plan.out_groups)
        return loss
