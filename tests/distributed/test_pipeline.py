"""Tests for the end-to-end training pipeline (Section III-C)."""

import pytest

from repro.core.similarity import SimilarityIndex
from repro.core.sgns import SGNSConfig
from repro.distributed.pipeline import PipelineConfig, TrainingPipeline


def small_pipeline(**overrides):
    defaults = dict(
        n_workers=3,
        sgns=SGNSConfig(dim=10, epochs=1, window=2, negatives=3, seed=4),
        use_si=True,
        use_user_types=True,
        directional=False,
    )
    defaults.update(overrides)
    return TrainingPipeline(PipelineConfig(**defaults))


class TestConfig:
    def test_defaults_valid(self):
        PipelineConfig().validate()

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError, match="partition_strategy"):
            PipelineConfig(partition_strategy="metis").validate()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(n_workers=0).validate()


class TestRun:
    def test_produces_usable_model(self, tiny_split):
        train, test = tiny_split
        pipeline = small_pipeline()
        model = pipeline.run(train)
        index = SimilarityIndex(model, mode="cosine")
        items, _ = index.topk(0, k=5)
        assert len(items) == 5
        assert pipeline.stats is not None
        assert pipeline.stats.simulated_seconds > 0

    def test_hbgp_beats_random_on_communication(self, tiny_split):
        train, _ = tiny_split
        hbgp = small_pipeline(partition_strategy="hbgp")
        hbgp.run(train)
        rand = small_pipeline(partition_strategy="random")
        rand.run(train)
        assert hbgp.stats.remote_fraction < rand.stats.remote_fraction

    def test_random_by_leaf_intermediate(self, tiny_split):
        train, _ = tiny_split
        pipeline = small_pipeline(partition_strategy="random_by_leaf")
        model = pipeline.run(train)
        assert model.w_in.shape[0] == len(model.vocab)

    def test_directional_pipeline(self, tiny_split):
        train, _ = tiny_split
        pipeline = small_pipeline(directional=True)
        model = pipeline.run(train)
        index = SimilarityIndex(model, mode="directional")
        items, _ = index.topk(0, k=3)
        assert len(items) == 3

    @pytest.mark.parametrize("directional,similarity", [(False, "cosine"), (True, "directional")])
    def test_model_records_its_similarity(self, tiny_split, directional, similarity):
        train, _ = tiny_split
        model = small_pipeline(directional=directional).run(train)
        assert model.similarity == similarity
        assert SimilarityIndex(model).mode == similarity

    def test_window_scaling_matches_sisg(self, tiny_split):
        """The pipeline scales the token window exactly like SISG.fit."""
        train, _ = tiny_split
        captured = {}

        import repro.distributed.pipeline as pipeline_mod

        original = pipeline_mod.train_distributed

        def spy(corpus, config, **kwargs):
            captured["window"] = config.window
            return original(corpus, config, **kwargs)

        pipeline_mod.train_distributed = spy
        try:
            small_pipeline(use_si=True).run(train)
            assert captured["window"] == 2 * 9
            small_pipeline(use_si=False).run(train)
            assert captured["window"] == 2
        finally:
            pipeline_mod.train_distributed = original


class TestSISGEngineIntegration:
    def test_sisg_distributed_engine(self, tiny_split):
        """SISG(engine='distributed') trains end to end."""
        from repro.core.sisg import SISG

        train, test = tiny_split
        model = SISG.sisg_f(
            dim=10, epochs=1, window=2, negatives=3, seed=4,
            engine="distributed", n_workers=2,
        ).fit(train)
        items, _ = model.recommend(0, k=5)
        assert len(items) == 5
