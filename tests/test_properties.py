"""Property-based tests on cross-cutting invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.sampling import (
    AliasSampler,
    PairGenerator,
    build_noise_distribution,
)
from repro.core.sgns import SGNSConfig, scatter_update, sigmoid
from repro.data.stats import _pair_count
from repro.graph.hbgp import HBGPConfig, hbgp_partition
from repro.serving import (
    MatchingService,
    ModelStore,
    RefreshConfig,
    RefreshDaemon,
    ShardedModelStore,
    bootstrap_day_source,
    build_bundle,
)
from repro.streaming import EventLog, StreamApplier, StreamConfig, SyntheticEventStream


class TestSigmoidProperties:
    @given(
        st.lists(
            st.floats(min_value=-700, max_value=700, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_bounded_and_monotone(self, values):
        x = np.asarray(sorted(values))
        y = sigmoid(x)
        assert np.all((y >= 0.0) & (y <= 1.0))
        assert np.all(np.diff(y) >= -1e-12)


class TestNoiseProperties:
    @given(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=100),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_distribution_sums_to_one(self, counts, alpha):
        counts = np.asarray(counts, dtype=float)
        if counts.sum() == 0:
            return
        dist = build_noise_distribution(counts, alpha)
        assert np.isclose(dist.sum(), 1.0)
        assert np.all(dist >= 0)
        # Zero-count tokens carry zero noise mass.
        assert np.all(dist[counts == 0] == 0.0)

    @given(st.lists(st.integers(1, 10_000), min_size=2, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_alpha_flattens_ordering(self, counts):
        """alpha<1 keeps order but compresses ratios."""
        counts = np.asarray(counts, dtype=float)
        flat = build_noise_distribution(counts, alpha=0.5)
        sharp = build_noise_distribution(counts, alpha=1.0)
        i, j = int(np.argmax(counts)), int(np.argmin(counts))
        if counts[i] == counts[j]:
            return
        assert flat[i] >= flat[j]
        assert flat[i] / flat[j] <= sharp[i] / sharp[j] + 1e-9


class TestPairCountProperties:
    @given(st.integers(0, 60), st.integers(1, 20))
    def test_symmetric_double_directional(self, length, window):
        assert _pair_count(length, window, False) == 2 * _pair_count(
            length, window, True
        )

    @given(st.integers(2, 60), st.integers(1, 20))
    def test_monotone_in_window(self, length, window):
        assert _pair_count(length, window + 1, True) >= _pair_count(
            length, window, True
        )


class TestPairGeneratorProperties:
    @given(
        st.lists(
            st.lists(st.integers(0, 20), min_size=0, max_size=15),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 5),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_batches_cover_exact_pair_count(self, raw, window, directional):
        sequences = [np.asarray(s, dtype=np.int64) for s in raw]
        gen = PairGenerator(
            sequences, window=window, directional=directional,
            dynamic_window=False,
        )
        total = sum(len(c) for c, _x in gen.batches(batch_size=7))
        assert total == gen.count_pairs()

    @given(
        st.lists(st.integers(0, 10), min_size=2, max_size=20),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_pairs_are_within_window_distance(self, raw, window):
        seq = np.asarray(raw, dtype=np.int64)
        gen = PairGenerator([seq], window=window, directional=True,
                            dynamic_window=False)
        centers, contexts = gen.pairs_of_sequence(seq)
        # Every (center, context) pair must exist at some offset <= window.
        position = {}
        for idx, token in enumerate(raw):
            position.setdefault(token, []).append(idx)
        for c, x in zip(centers.tolist(), contexts.tolist()):
            assert any(
                0 < jx - ic <= window
                for ic in position[c]
                for jx in position[x]
            )


class TestScatterUpdateProperties:
    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=40),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_clip_bounds_every_row_step(self, indices, max_norm):
        rng = np.random.default_rng(0)
        matrix = np.zeros((10, 4))
        grads = rng.normal(scale=10.0, size=(len(indices), 4))
        scatter_update(
            matrix,
            np.asarray(indices),
            grads,
            lr=1.0,
            max_step_norm=max_norm,
        )
        norms = np.linalg.norm(matrix, axis=1)
        assert np.all(norms <= max_norm + 1e-9)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_sum_equals_mean_times_count(self, indices):
        indices = np.asarray(indices)
        grads = np.ones((len(indices), 2))
        m_sum = np.zeros((5, 2))
        m_mean = np.zeros((5, 2))
        scatter_update(m_sum, indices, grads, 1.0, "sum", max_step_norm=None)
        scatter_update(m_mean, indices, grads, 1.0, "mean", max_step_norm=None)
        counts = np.bincount(indices, minlength=5).astype(float)
        touched = counts > 0
        np.testing.assert_allclose(
            m_sum[touched], m_mean[touched] * counts[touched, None]
        )


class TestAliasSamplerProperties:
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_uniform_weights_cover_support(self, n, seed):
        sampler = AliasSampler(np.ones(n))
        draws = sampler.sample(max(200, n * 30), rng=seed)
        assert set(np.unique(draws)) <= set(range(n))
        if n <= 10:
            assert len(np.unique(draws)) == n


class TestOneWriterProperties:
    """Nightlies and windows promote from the live generation, in any order."""

    TRAIN = SGNSConfig(dim=12, epochs=1, window=2, negatives=2, seed=0)
    BUILD = {"n_cells": 8, "table_coverage": 0.8, "seed": 1}

    @given(
        st.sampled_from([1, 2]),
        st.lists(st.sampled_from(["window", "nightly"]), min_size=1, max_size=5),
        st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_listed_items_stay_servable(self, fitted_sisg, tiny_split, shards, order, seed):
        train, _ = tiny_split
        model = fitted_sisg.model
        if shards == 1:
            store = ModelStore(build_bundle(model, train, **self.BUILD))
        else:
            partition = hbgp_partition(train, HBGPConfig(n_partitions=shards))
            store = ShardedModelStore.build(model, train, partition, **self.BUILD)
        service = MatchingService(store)
        daemon = RefreshDaemon(
            service,
            bootstrap_day_source(train, seed=seed),
            RefreshConfig(train_config=self.TRAIN, build_kwargs=self.BUILD),
            seed=seed,
        )
        stream = SyntheticEventStream(
            train, new_items_per_window=1, events_per_window=24, seed=seed
        )
        log = EventLog()
        applier = StreamApplier(
            service, log, train,
            StreamConfig(train_config=self.TRAIN, build_kwargs=self.BUILD), seed=seed,
        )
        for step in order:
            if step == "nightly":
                assert daemon.run_once().promoted
            else:
                log.extend(stream.window())
                assert all(r.applied for r in applier.run_pending())
            for item_id in stream.new_item_ids:
                assert service.knows_item(item_id)
                assert service.recommend(item_id, 5).tier != "popularity"
