"""Unit and property tests for sampling: alias method, noise, windows."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sampling import (
    AliasSampler,
    PairGenerator,
    build_noise_distribution,
    subsample_keep_probabilities,
)


class TestAliasSampler:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AliasSampler(np.array([]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AliasSampler(np.array([0.5, -0.1]))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            AliasSampler(np.zeros(3))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            AliasSampler(np.ones((2, 2)))

    def test_single_outcome(self):
        sampler = AliasSampler(np.array([1.0]))
        assert np.all(sampler.sample(100, rng=0) == 0)

    def test_zero_weight_never_sampled(self):
        sampler = AliasSampler(np.array([1.0, 0.0, 1.0]))
        draws = sampler.sample(5000, rng=0)
        assert not np.any(draws == 1)

    def test_empirical_distribution_matches(self):
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        sampler = AliasSampler(weights)
        draws = sampler.sample(200_000, rng=42)
        freq = np.bincount(draws, minlength=4) / len(draws)
        np.testing.assert_allclose(freq, weights / weights.sum(), atol=0.01)

    def test_shape_passthrough(self):
        sampler = AliasSampler(np.ones(5))
        assert sampler.sample((3, 7), rng=0).shape == (3, 7)

    def test_len(self):
        assert len(AliasSampler(np.ones(9))) == 9

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50)
    )
    @settings(max_examples=50, deadline=None)
    def test_samples_always_in_range(self, weights):
        weights = np.asarray(weights)
        if weights.sum() <= 0:
            return
        sampler = AliasSampler(weights)
        draws = sampler.sample(200, rng=1)
        assert np.all((draws >= 0) & (draws < len(weights)))
        # Zero-weight outcomes must never appear.
        zero = np.flatnonzero(weights == 0)
        assert not np.isin(draws, zero).any()


class TestNoiseDistribution:
    def test_standard_alpha(self):
        counts = np.array([16.0, 81.0])
        dist = build_noise_distribution(counts, alpha=0.75)
        expected = np.array([8.0, 27.0])
        np.testing.assert_allclose(dist, expected / expected.sum())

    def test_alpha_zero_is_uniform_over_nonzero(self):
        dist = build_noise_distribution(np.array([1.0, 100.0]), alpha=0.0)
        np.testing.assert_allclose(dist, [0.5, 0.5])

    def test_alpha_one_is_unigram(self):
        counts = np.array([1.0, 3.0])
        np.testing.assert_allclose(
            build_noise_distribution(counts, alpha=1.0), [0.25, 0.75]
        )

    def test_sums_to_one(self):
        dist = build_noise_distribution(np.arange(100, dtype=float))
        assert np.isclose(dist.sum(), 1.0)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            build_noise_distribution(np.zeros(4))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            build_noise_distribution(np.ones(3), alpha=1.5)


class TestSubsampling:
    def test_disabled_threshold_keeps_all(self):
        keep = subsample_keep_probabilities(np.array([5, 100]), threshold=0)
        np.testing.assert_array_equal(keep, [1.0, 1.0])

    def test_rare_tokens_kept(self):
        counts = np.zeros(1000)
        counts[0] = 1
        counts[1] = 999_999
        keep = subsample_keep_probabilities(counts, threshold=1e-3)
        assert keep[0] == 1.0
        assert keep[1] < 0.1

    def test_zero_count_token_keeps_probability_one(self):
        keep = subsample_keep_probabilities(np.array([0, 100]), threshold=1e-3)
        assert keep[0] == 1.0

    def test_monotone_decreasing_in_frequency(self):
        counts = np.array([10, 100, 1000, 10000], dtype=float)
        keep = subsample_keep_probabilities(counts, threshold=1e-3)
        assert np.all(np.diff(keep) <= 1e-12)

    def test_formula_matches_word2vec(self):
        counts = np.array([900.0, 100.0])
        t = 0.01
        f = 0.9
        expected = np.sqrt(f / t) * (t / f) + (t / f)
        keep = subsample_keep_probabilities(counts, threshold=t)
        assert np.isclose(keep[0], min(expected, 1.0))

    @given(st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_probabilities_bounded(self, threshold):
        counts = np.array([1, 10, 100, 1000, 0], dtype=float)
        keep = subsample_keep_probabilities(counts, threshold)
        assert np.all((keep >= 0.0) & (keep <= 1.0))


def seqs(*lists):
    return [np.asarray(x, dtype=np.int64) for x in lists]


class TestPairGenerator:
    def test_symmetric_pairs_full_window(self):
        gen = PairGenerator(
            seqs([0, 1, 2]), window=2, directional=False, dynamic_window=False
        )
        centers, contexts = gen.pairs_of_sequence(np.array([0, 1, 2]))
        pairs = set(zip(centers.tolist(), contexts.tolist()))
        assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}

    def test_directional_only_forward(self):
        gen = PairGenerator(
            seqs([0, 1, 2]), window=2, directional=True, dynamic_window=False
        )
        centers, contexts = gen.pairs_of_sequence(np.array([0, 1, 2]))
        pairs = set(zip(centers.tolist(), contexts.tolist()))
        assert pairs == {(0, 1), (1, 2), (0, 2)}
        # Every center index precedes its context in the sequence.
        assert all(c < x for c, x in pairs)

    def test_window_one(self):
        gen = PairGenerator(
            seqs([3, 1, 4]), window=1, directional=True, dynamic_window=False
        )
        centers, contexts = gen.pairs_of_sequence(np.array([3, 1, 4]))
        assert list(zip(centers, contexts)) == [(3, 1), (1, 4)]

    def test_short_sequence_yields_nothing(self):
        gen = PairGenerator(seqs([5]), window=3, dynamic_window=False)
        centers, contexts = gen.pairs_of_sequence(np.array([5]))
        assert len(centers) == 0 and len(contexts) == 0

    def test_batches_cover_all_pairs(self):
        sequences = seqs([0, 1, 2, 3], [4, 5, 6], [7, 8])
        gen = PairGenerator(sequences, window=2, dynamic_window=False)
        total = sum(len(c) for c, _x in gen.batches(batch_size=4))
        assert total == gen.count_pairs()

    def test_batch_sizes_respected(self):
        sequences = seqs(*[list(range(10))] * 20)
        gen = PairGenerator(sequences, window=3, dynamic_window=False)
        batches = list(gen.batches(batch_size=64))
        assert all(len(c) == 64 for c, _ in batches[:-1])
        assert 0 < len(batches[-1][0]) <= 64

    def test_count_pairs_directional_halves_symmetric(self):
        sequences = seqs(list(range(50)))
        sym = PairGenerator(sequences, window=5, directional=False)
        dire = PairGenerator(sequences, window=5, directional=True)
        assert sym.count_pairs() == 2 * dire.count_pairs()

    def test_subsampling_drops_hot_token(self):
        keep = np.array([0.0, 1.0, 1.0])
        sequences = seqs([0, 1, 2, 0, 1, 2])
        gen = PairGenerator(
            sequences,
            window=1,
            keep_probabilities=keep,
            dynamic_window=False,
            seed=0,
        )
        for centers, contexts in gen.batches(100):
            assert not np.any(centers == 0)
            assert not np.any(contexts == 0)

    def test_dynamic_window_keeps_adjacent_always(self):
        # Offset 1 has keep probability (m - 1 + 1)/m = 1.
        sequences = seqs(list(range(20)))
        gen = PairGenerator(sequences, window=4, directional=True, seed=3)
        centers, contexts = gen.pairs_of_sequence(np.arange(20))
        adjacent = {(i, i + 1) for i in range(19)}
        got = set(zip(centers.tolist(), contexts.tolist()))
        assert adjacent <= got

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            PairGenerator(seqs([0, 1]), window=0)

    def test_rejects_nonpositive_batch(self):
        gen = PairGenerator(seqs([0, 1]), window=1)
        with pytest.raises(ValueError):
            list(gen.batches(0))

    @given(st.lists(st.integers(0, 9), min_size=2, max_size=30), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_directional_pairs_preserve_order_property(self, tokens, window):
        seq = np.asarray(tokens, dtype=np.int64)
        gen = PairGenerator([seq], window=window, directional=True,
                            dynamic_window=False)
        centers, contexts = gen.pairs_of_sequence(seq)
        # Reconstruct positions: every pair must be (seq[i], seq[i+d]) with
        # 1 <= d <= window.  Verify counts per offset.
        expected = 0
        for d in range(1, min(window, len(seq) - 1) + 1):
            expected += len(seq) - d
        assert len(centers) == expected


class TestVectorizedAliasBuild:
    """The vectorized table construction must encode the same
    distribution as the reference two-stack loop."""

    @staticmethod
    def table_distribution(sampler: AliasSampler) -> np.ndarray:
        """Reconstruct q from (accept, alias): each slot contributes
        accept/n to itself and (1-accept)/n to its alias."""
        n = len(sampler)
        q = np.zeros(n)
        np.add.at(q, np.arange(n), sampler._accept / n)
        np.add.at(q, sampler._alias, (1.0 - sampler._accept) / n)
        return q

    @pytest.mark.parametrize(
        "weights",
        [
            np.ones(7),
            np.array([1.0, 2.0, 3.0, 4.0]),
            1.0 / np.arange(1, 2000) ** 1.2,  # power law
            np.array([1e6, 1.0, 1.0, 1e-6, 0.0, 3.0]),
        ],
        ids=["uniform", "ramp", "powerlaw", "extreme"],
    )
    def test_table_encodes_distribution(self, weights):
        sampler = AliasSampler(weights)
        q = np.asarray(weights, dtype=np.float64)
        q = q / q.sum()
        np.testing.assert_allclose(self.table_distribution(sampler), q,
                                   atol=1e-12)

    def test_matches_loop_build_distribution(self):
        """A spiky 500-way Dirichlet draw (the shape the two-stack loop
        was the reference for): the table encodes it exactly."""
        rng = np.random.default_rng(0)
        weights = rng.dirichlet(np.full(500, 0.1))
        np.testing.assert_allclose(
            self.table_distribution(AliasSampler(weights)),
            weights / weights.sum(),
            atol=1e-12,
        )

    @given(
        st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=200)
    )
    @settings(max_examples=80, deadline=None)
    def test_table_distribution_property(self, weights):
        w = np.asarray(weights)
        if w.sum() <= 0:
            return
        sampler = AliasSampler(w)
        np.testing.assert_allclose(
            self.table_distribution(sampler), w / w.sum(), atol=1e-9
        )


class TestCountPairsClosedForm:
    """Satellite: the bincount closed form must pin to the per-sequence
    loop values."""

    @staticmethod
    def loop_count(sequences, window, directional):
        sides = 1 if directional else 2
        total = 0
        for seq in sequences:
            length = len(seq)
            if length <= window + 1:
                total += sides * length * (length - 1) // 2
            else:
                total += sides * (window * length - window * (window + 1) // 2)
        return total

    @pytest.mark.parametrize("window", [1, 2, 5, 9])
    @pytest.mark.parametrize("directional", [False, True])
    def test_matches_loop(self, window, directional):
        rng = np.random.default_rng(42)
        sequences = [
            np.zeros(int(n), dtype=np.int64)
            for n in rng.integers(0, 25, size=200)
        ]
        gen = PairGenerator(
            sequences, window=window, directional=directional,
            dynamic_window=False,
        )
        assert gen.count_pairs() == self.loop_count(
            sequences, window, directional
        )

    def test_empty_corpus(self):
        gen = PairGenerator([np.array([], dtype=np.int64)], window=3)
        assert gen.count_pairs() == 0


class TestPrecomputedPairs:
    """Satellite: precompute mode and batches() edge cases."""

    def test_materialized_pairs_match_streaming_set(self):
        sequences = seqs([0, 1, 2, 3], [4, 5, 6], [7, 8])
        stream = PairGenerator(sequences, window=2, dynamic_window=False)
        pre = PairGenerator(
            sequences, window=2, dynamic_window=False,
            precompute=True, shuffle=False,
        )
        want = set()
        for c, x in stream.batches(100):
            want |= set(zip(c.tolist(), x.tolist()))
        got = set()
        for c, x in pre.batches(100):
            got |= set(zip(c.tolist(), x.tolist()))
        assert got == want

    def test_materialized_count_matches_count_pairs(self):
        sequences = seqs(*[list(range(9))] * 17)
        gen = PairGenerator(
            sequences, window=3, dynamic_window=False,
            precompute=True, shuffle=True, seed=1,
        )
        total = sum(len(c) for c, _ in gen.batches(50))
        assert total == gen.count_pairs()

    @pytest.mark.parametrize("precompute", [False, True])
    def test_remainder_flushed_across_short_sequences(self, precompute):
        # 100 sequences of 2 tokens -> 1 directional pair each; batch 7
        # leaves a remainder of 2 that must still be yielded.
        sequences = seqs(*[[i, i + 1] for i in range(100)])
        gen = PairGenerator(
            sequences, window=1, directional=True, dynamic_window=False,
            precompute=precompute, shuffle=False,
        )
        batches = list(gen.batches(7))
        assert sum(len(c) for c, _ in batches) == 100
        assert all(len(c) == 7 for c, _ in batches[:-1])
        assert len(batches[-1][0]) == 100 % 7

    @pytest.mark.parametrize("precompute", [False, True])
    def test_exact_multiple_of_batch_no_empty_tail(self, precompute):
        # 24 directional pairs, batch 8 -> exactly 3 full batches.
        sequences = seqs(*[[0, 1] for _ in range(24)])
        gen = PairGenerator(
            sequences, window=1, directional=True, dynamic_window=False,
            precompute=precompute, shuffle=False,
        )
        batches = list(gen.batches(8))
        assert [len(c) for c, _ in batches] == [8, 8, 8]

    @pytest.mark.parametrize("precompute", [False, True])
    def test_all_subsampled_away_yields_nothing(self, precompute):
        keep = np.zeros(3)
        sequences = seqs([0, 1, 2], [2, 1, 0])
        gen = PairGenerator(
            sequences, window=2, keep_probabilities=keep,
            dynamic_window=False, seed=0,
            precompute=precompute, shuffle=False,
        )
        assert list(gen.batches(4)) == []

    def test_precompute_handles_empty_sequences(self):
        sequences = seqs([], [0, 1, 2], [], [3, 4])
        gen = PairGenerator(
            sequences, window=2, dynamic_window=False,
            precompute=True, shuffle=False,
        )
        total = sum(len(c) for c, _ in gen.batches(100))
        assert total == gen.count_pairs()

    def test_precompute_shuffle_preserves_multiset(self):
        sequences = seqs(list(range(12)))
        plain = PairGenerator(
            sequences, window=2, dynamic_window=False,
            precompute=True, shuffle=False,
        )
        shuffled = PairGenerator(
            sequences, window=2, dynamic_window=False,
            precompute=True, shuffle=True, seed=9,
        )
        def collect(g):
            return sorted(
                pair
                for c, x in g.batches(1000)
                for pair in zip(c.tolist(), x.tolist())
            )

        assert collect(plain) == collect(shuffled)
