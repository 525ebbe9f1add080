"""Skip-gram pair sampling, frequent-token subsampling, negative sampling.

Three pieces of the word2vec recipe, implemented exactly as the paper
describes (Sections II-A, II-C and III-C):

- **Window sampling** with either the symmetric window ``W_m(v_i)`` or,
  for the directional model, the *right* context window only.  The
  classic word2vec "dynamic window" (effective window size uniform in
  ``1..m``) is reproduced in expectation by keeping an offset-``d`` pair
  with probability ``(m - d + 1) / m``.
- **Subsampling of frequent tokens** with the word2vec keep probability
  ``(sqrt(f/t) + 1) * t / f`` where ``f`` is the relative frequency and
  ``t`` the threshold.  The paper applies this aggressively to hot SI
  tokens.
- **Negative sampling** from the unigram distribution raised to
  ``alpha = 0.75``, drawn in O(1) per sample via the Walker alias method.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.utils import ensure_rng, require, require_in_range, require_positive


class AliasSampler:
    """O(1) sampling from a discrete distribution (Walker's alias method).

    Parameters
    ----------
    weights:
        Non-negative, not-all-zero weights; normalized internally.

    The table is built in a handful of NumPy passes
    (:func:`_alias_rounds`); the classic two-stack loop finishes whatever
    columns those rounds leave behind.  Alias tables are not unique; any
    valid one encodes the same distribution.
    """

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        require(weights.ndim == 1, "weights must be one-dimensional")
        require(len(weights) > 0, "weights must be non-empty")
        require(bool(np.all(weights >= 0)), "weights must be non-negative")
        total = float(weights.sum())
        require(total > 0, "weights must not all be zero")

        n = len(weights)
        prob = weights * (n / total)
        alias = np.arange(n, dtype=np.int64)
        accept = np.ones(n, dtype=np.float64)

        small = np.flatnonzero(prob < 1.0)
        large = np.flatnonzero(prob >= 1.0)
        small, large = _alias_rounds(prob, accept, alias, small, large)
        _alias_two_stack(prob, accept, alias, small, large)

        self._accept = accept
        self._alias = alias
        self._n = n

    def __len__(self) -> int:
        return self._n

    def sample(
        self, shape: "int | tuple[int, ...]", rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        """Draw samples of the given shape."""
        rng = ensure_rng(rng)
        idx = rng.integers(0, self._n, size=shape)
        coin = rng.random(size=idx.shape)
        return np.where(coin < self._accept[idx], idx, self._alias[idx])


#: Bound on the vectorized matcher's rounds; distributions it cannot
#: finish within the bound fall through to the two-stack loop.
_ALIAS_MAX_ROUNDS = 64


def _alias_rounds(
    prob: np.ndarray,
    accept: np.ndarray,
    alias: np.ndarray,
    small: np.ndarray,
    large: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized alias-table construction by cumulative-sum matching.

    Each round lines up the deficits of the small columns (``1 - p``)
    against the excesses of the large columns (``p - 1``) on a shared
    cumulative axis and finalizes every small column whose whole deficit
    interval falls inside a single large column's excess interval
    (``searchsorted`` finds the donor).  Boundary-straddling smalls are
    deferred to the next round — at most one per donor — so the pool
    shrinks geometrically and the interpreter cost is O(rounds), not
    O(n).  Donations never overdraw a donor, so every finalized column
    is exact; whatever remains after the round cap (typically nothing)
    is returned for the two-stack loop to finish.
    """
    for _ in range(_ALIAS_MAX_ROUNDS):
        if len(small) == 0 or len(large) == 0:
            break
        deficits = 1.0 - prob[small]
        cum_d = np.cumsum(deficits)
        cum_e = np.cumsum(prob[large] - 1.0)
        donor = np.searchsorted(cum_e, cum_d, side="left")
        cum_e_prev = np.concatenate(([0.0], cum_e))
        in_range = donor < len(large)
        fits = in_range & (cum_d - deficits >= cum_e_prev[np.minimum(donor, len(large) - 1)])
        if not fits.any():
            break
        done, donor_of_done = small[fits], donor[fits]
        accept[done] = prob[done]
        alias[done] = large[donor_of_done]
        donated = np.bincount(
            donor_of_done, weights=deficits[fits], minlength=len(large)
        )
        prob[large] -= donated
        still_large = prob[large] >= 1.0
        small = np.concatenate((small[~fits], large[~still_large]))
        large = large[still_large]
    return small, large


def _alias_two_stack(
    prob: np.ndarray,
    accept: np.ndarray,
    alias: np.ndarray,
    small: np.ndarray,
    large: np.ndarray,
) -> None:
    """The classic two-stack build (Walker/Vose), the finisher for
    whatever the vectorized rounds left behind.  Columns left over
    (floating-point residue) keep ``accept = 1``."""
    small = list(small)
    large = list(large)
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = prob[s]
        alias[s] = l
        prob[l] = prob[l] - (1.0 - prob[s])
        if prob[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    for leftover in large + small:
        accept[leftover] = 1.0
        alias[leftover] = leftover


def build_noise_distribution(counts: np.ndarray, alpha: float = 0.75) -> np.ndarray:
    """Normalized noise distribution ``P(v) ~ freq(v)^alpha`` (Sec. III-C)."""
    require_in_range(alpha, "alpha", 0.0, 1.0)
    counts = np.asarray(counts, dtype=np.float64)
    require(len(counts) > 0, "counts must be non-empty")
    require(bool(np.all(counts >= 0)), "counts must be non-negative")
    weights = counts ** alpha
    # NumPy evaluates 0**0 as 1; a token never seen must carry zero noise
    # mass regardless of alpha.
    weights[counts == 0] = 0.0
    total = weights.sum()
    require(total > 0, "at least one token must have positive count")
    return weights / total


def subsample_keep_probabilities(
    counts: np.ndarray, threshold: float = 1e-3
) -> np.ndarray:
    """Word2vec keep probability per token.

    ``p_keep(v) = (sqrt(f/t) + 1) * t / f`` clipped to [0, 1], with ``f``
    the relative frequency of ``v`` and ``t`` the threshold.  Tokens with
    zero count keep probability 1 (they never occur anyway).  A
    ``threshold <= 0`` disables subsampling (all ones).
    """
    counts = np.asarray(counts, dtype=np.float64)
    if threshold <= 0:
        return np.ones(len(counts), dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        return np.ones(len(counts), dtype=np.float64)
    freq = counts / total
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = threshold / freq
        keep = np.sqrt(1.0 / ratio) * ratio + ratio
    keep[counts == 0] = 1.0
    return np.clip(keep, 0.0, 1.0)


def pairs_per_sequence(lengths: np.ndarray, window: int) -> np.ndarray:
    """Skip-gram pairs (one side) of sequences of the given lengths.

    Closed form, without subsampling or dynamic windowing: a length-``L``
    sequence contributes ``sum_{d=1..min(m, L-1)} (L - d)`` ordered pairs
    per side, i.e. ``L (L - 1) / 2`` when ``L <= m + 1`` and
    ``m L - m (m + 1) / 2`` otherwise.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.where(
        lengths <= window + 1,
        lengths * (lengths - 1) // 2,
        window * lengths - window * (window + 1) // 2,
    )


class PairGenerator:
    """Streams (center, context) skip-gram pairs from an encoded corpus.

    Parameters
    ----------
    sequences:
        Encoded sequences (``int64`` arrays of token ids).
    window:
        Maximum window size ``m``.
    directional:
        When True, pairs are sampled from the right context window only
        (Section II-C), i.e. the center always *precedes* the context.
    keep_probabilities:
        Optional per-token keep probability for frequent-token
        subsampling, applied to the sequence *before* windowing (the
        word2vec discard-then-window order, which widens effective
        contexts across discarded tokens).
    dynamic_window:
        Emulate word2vec's dynamic window: an offset-``d`` pair survives
        with probability ``(m - d + 1) / m``.
    seed:
        Randomness for subsampling and the dynamic window.
    precompute:
        When True, :meth:`batches` materializes the whole epoch's
        (center, context) arrays in one vectorized pass over the
        flattened corpus (subsampling, windowing and the dynamic-window
        draw included) and yields slices of them, instead of re-running
        the per-sequence Python loop every epoch.  Subsampling and the
        dynamic window are redrawn per epoch in both modes; the RNG
        streams differ, so the two modes are *statistically* equivalent
        but not bit-identical.
    shuffle:
        Only meaningful with ``precompute``: globally shuffle the
        materialized pairs each epoch (better SGD mixing than the
        offset-major materialization order; streaming mode keeps corpus
        order).
    """

    def __init__(
        self,
        sequences: list[np.ndarray],
        window: int = 5,
        directional: bool = False,
        keep_probabilities: np.ndarray | None = None,
        dynamic_window: bool = True,
        seed: "int | np.random.Generator | None" = 0,
        precompute: bool = False,
        shuffle: bool = True,
    ) -> None:
        require_positive(window, "window")
        self.sequences = sequences
        self.window = window
        self.directional = directional
        self.keep_probabilities = keep_probabilities
        self.dynamic_window = dynamic_window
        self.precompute = precompute
        self.shuffle = shuffle
        self._rng = ensure_rng(seed)
        self._flat: np.ndarray | None = None
        self._starts: np.ndarray | None = None
        self._lengths: np.ndarray | None = None

    def _subsample(self, seq: np.ndarray) -> np.ndarray:
        if self.keep_probabilities is None:
            return seq
        mask = self._rng.random(len(seq)) < self.keep_probabilities[seq]
        return seq[mask]

    def pairs_of_sequence(self, seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All pairs of one (already subsampled) sequence, vectorized.

        Returns ``(centers, contexts)`` arrays.  For each offset ``d`` in
        ``1..m`` the aligned slices ``seq[:-d]`` / ``seq[d:]`` give the
        "center precedes context" pairs; the symmetric window adds the
        mirrored pairs.
        """
        centers: list[np.ndarray] = []
        contexts: list[np.ndarray] = []
        length = len(seq)
        for offset in range(1, min(self.window, length - 1) + 1):
            left = seq[:-offset]
            right = seq[offset:]
            if self.dynamic_window:
                keep_p = (self.window - offset + 1) / self.window
                mask = self._rng.random(len(left)) < keep_p
                left, right = left[mask], right[mask]
            centers.append(left)
            contexts.append(right)
            if not self.directional:
                centers.append(right)
                contexts.append(left)
        if not centers:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(centers), np.concatenate(contexts)

    def _flatten(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cache the corpus as one flat array + per-sequence boundaries.

        Empty sequences are dropped (they contribute no pairs).
        """
        if self._flat is None:
            seqs = [s for s in self.sequences if len(s) > 0]
            if seqs:
                self._flat = np.concatenate(seqs)
                self._lengths = np.asarray([len(s) for s in seqs], dtype=np.int64)
            else:
                self._flat = np.empty(0, dtype=np.int64)
                self._lengths = np.empty(0, dtype=np.int64)
            starts = np.zeros(len(self._lengths), dtype=np.int64)
            np.cumsum(self._lengths[:-1], out=starts[1:])
            self._starts = starts
        return self._flat, self._starts, self._lengths

    def materialize_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """One epoch's (centers, contexts), fully vectorized.

        Subsampling is drawn over the whole flattened corpus at once and
        the survivors are compacted *within their sequence boundaries*
        (the word2vec discard-then-window order).  Each window offset
        ``d`` then contributes the aligned slices ``compact[i]`` /
        ``compact[i + d]`` for every position ``i`` with at least ``d``
        successors left in its own sequence — no per-sequence Python
        loop, only a loop over the ``window`` offsets.
        """
        flat, starts, lengths = self._flatten()
        if len(flat) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if self.keep_probabilities is not None:
            mask = self._rng.random(len(flat)) < self.keep_probabilities[flat]
            compact = flat[mask]
            kept = np.zeros(len(flat) + 1, dtype=np.int64)
            np.cumsum(mask, out=kept[1:])
            new_lengths = kept[starts + lengths] - kept[starts]
        else:
            compact = flat
            new_lengths = lengths
        total = len(compact)
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        offsets = np.zeros(len(new_lengths), dtype=np.int64)
        np.cumsum(new_lengths[:-1], out=offsets[1:])
        # Tokens remaining in the same sequence from each position
        # (inclusive of the position itself).
        remaining = (
            np.repeat(new_lengths, new_lengths)
            - (np.arange(total) - np.repeat(offsets, new_lengths))
        )
        centers: list[np.ndarray] = []
        contexts: list[np.ndarray] = []
        for offset in range(1, min(self.window, int(new_lengths.max(initial=0)) - 1) + 1):
            idx = np.flatnonzero(remaining > offset)
            if len(idx) == 0:
                break
            if self.dynamic_window:
                keep_p = (self.window - offset + 1) / self.window
                idx = idx[self._rng.random(len(idx)) < keep_p]
                if len(idx) == 0:
                    continue
            left = compact[idx]
            right = compact[idx + offset]
            centers.append(left)
            contexts.append(right)
            if not self.directional:
                centers.append(right)
                contexts.append(left)
        if not centers:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        all_centers = np.concatenate(centers)
        all_contexts = np.concatenate(contexts)
        if self.shuffle:
            perm = self._rng.permutation(len(all_centers))
            all_centers = all_centers[perm]
            all_contexts = all_contexts[perm]
        return all_centers, all_contexts

    def batches(self, batch_size: int = 8192) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(centers, contexts)`` batches of roughly ``batch_size``.

        One pass over the corpus = one epoch.  In streaming mode, pairs
        from consecutive sequences are buffered and re-chunked so batch
        sizes stay stable regardless of sequence lengths; in
        ``precompute`` mode the epoch's pairs are materialized once and
        sliced.
        """
        require_positive(batch_size, "batch_size")
        if self.precompute:
            centers, contexts = self.materialize_pairs()
            for start in range(0, len(centers), batch_size):
                yield (
                    centers[start : start + batch_size],
                    contexts[start : start + batch_size],
                )
            return
        buf_centers: list[np.ndarray] = []
        buf_contexts: list[np.ndarray] = []
        buffered = 0
        for seq in self.sequences:
            seq = self._subsample(seq)
            if len(seq) < 2:
                continue
            c, x = self.pairs_of_sequence(seq)
            if len(c) == 0:
                continue
            buf_centers.append(c)
            buf_contexts.append(x)
            buffered += len(c)
            if buffered >= batch_size:
                centers = np.concatenate(buf_centers)
                contexts = np.concatenate(buf_contexts)
                for start in range(0, len(centers) - batch_size + 1, batch_size):
                    yield (
                        centers[start : start + batch_size],
                        contexts[start : start + batch_size],
                    )
                remainder = len(centers) % batch_size
                if remainder:
                    buf_centers = [centers[-remainder:]]
                    buf_contexts = [contexts[-remainder:]]
                else:
                    buf_centers, buf_contexts = [], []
                buffered = remainder
        if buffered:
            yield np.concatenate(buf_centers), np.concatenate(buf_contexts)

    def count_pairs(self) -> int:
        """Expected pair count without subsampling or dynamic windowing.

        A cheap upper bound used for learning-rate scheduling; the exact
        realized count varies run to run because subsampling and the
        dynamic window are stochastic (:func:`pairs_per_sequence`, both
        sides unless directional).
        """
        sides = 1 if self.directional else 2
        lengths = np.fromiter(
            (len(seq) for seq in self.sequences),
            dtype=np.int64,
            count=len(self.sequences),
        )
        return int(sides * pairs_per_sequence(lengths, self.window).sum())
