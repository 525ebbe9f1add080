"""Unit tests for the SISG façade and its variants."""

import numpy as np
import pytest

from repro.core.sisg import SISG, SISGConfig
from repro.core.vocab import TokenKind


class TestVariantConstructors:
    @pytest.mark.parametrize(
        "name,si,ut,directional",
        [
            ("SGNS", False, False, False),
            ("SISG-F", True, False, False),
            ("SISG-U", False, True, False),
            ("SISG-F-U", True, True, False),
            ("SISG-F-U-D", True, True, True),
        ],
    )
    def test_factory_flags(self, name, si, ut, directional):
        model = SISG.variant(name, dim=8)
        assert model.config.use_si is si
        assert model.config.use_user_types is ut
        assert model.config.directional is directional
        assert model.config.variant_name == name

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            SISG.variant("SISG-X")

    def test_sgns_kwargs_forwarded(self):
        model = SISG.sisg_f(dim=24, epochs=3, negatives=7)
        assert model.config.sgns.dim == 24
        assert model.config.sgns.epochs == 3
        assert model.config.sgns.negatives == 7

    def test_engine_kwargs_forwarded(self):
        model = SISG.sgns(dim=8, engine="distributed", n_workers=3)
        assert model.config.engine == "distributed"
        assert model.config.n_workers == 3

    def test_tns_engine_and_auto_workers_accepted(self):
        model = SISG.sgns(dim=8, engine="tns", n_workers="auto")
        assert model.config.engine == "tns"
        assert model.config.n_workers == "auto"
        model.config.validate()

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            SISGConfig(engine="spark").validate()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="n_workers"):
            SISGConfig(n_workers="many").validate()
        with pytest.raises(ValueError, match="n_workers"):
            SISGConfig(n_workers=0).validate()

    def test_variant_name_for_partial_combos(self):
        assert SISGConfig(
            use_si=True, use_user_types=False, directional=True
        ).variant_name == "SISG-F-D"


class TestUnfittedGuards:
    def test_recommend_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            SISG.sgns(dim=8).recommend(0)

    def test_vector_access_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            SISG.sgns(dim=8).item_vector(0)


class TestFittedModel:
    def test_fit_returns_self_and_builds_index(self, fitted_sgns):
        assert fitted_sgns.model is not None
        assert fitted_sgns.index is not None
        assert fitted_sgns.index.mode == "cosine"

    def test_directional_variant_uses_directional_index(self, fitted_sisg):
        assert fitted_sisg.index.mode == "directional"

    def test_model_records_its_similarity(self, fitted_sgns, fitted_sisg):
        assert fitted_sgns.model.similarity == "cosine"
        assert fitted_sisg.model.similarity == "directional"

    def test_recommend_shape_and_exclusion(self, fitted_sgns):
        items, scores = fitted_sgns.recommend(0, k=5)
        assert len(items) == 5
        assert len(scores) == 5
        assert 0 not in items
        assert np.all(np.diff(scores) <= 1e-12)

    def test_item_vector_dimensions(self, fitted_sgns):
        vec = fitted_sgns.item_vector(3)
        assert vec.shape == (12,)

    def test_si_vector_lookup(self, fitted_sisg, tiny_dataset):
        leaf = tiny_dataset.items[0].si_values["leaf_category"]
        vec = fitted_sisg.si_vector("leaf_category", leaf)
        assert vec.shape == (12,)

    def test_si_vector_absent_for_plain_sgns(self, fitted_sgns, tiny_dataset):
        leaf = tiny_dataset.items[0].si_values["leaf_category"]
        with pytest.raises(KeyError):
            fitted_sgns.si_vector("leaf_category", leaf)

    def test_user_type_vector(self, fitted_sisg, tiny_dataset):
        # Use a user type that actually occurs in training sessions.
        user = tiny_dataset.users[tiny_dataset.sessions[0].user_id]
        vec = fitted_sisg.user_type_vector(user)
        assert vec.shape == (12,)

    def test_vocab_kinds_match_config(self, fitted_sgns, fitted_sisg):
        plain_vocab = fitted_sgns.model.vocab
        assert len(plain_vocab.ids_of_kind(TokenKind.SI)) == 0
        assert len(plain_vocab.ids_of_kind(TokenKind.USER_TYPE)) == 0
        rich_vocab = fitted_sisg.model.vocab
        assert len(rich_vocab.ids_of_kind(TokenKind.SI)) > 0
        assert len(rich_vocab.ids_of_kind(TokenKind.USER_TYPE)) > 0


class TestWindowScaling:
    def test_enriched_window_scaled_by_token_block(self, tiny_split):
        """With SI, the token window must cover 1+n_si slots per item."""
        train, _ = tiny_split
        captured = {}

        import repro.core.sisg as sisg_mod

        original = sisg_mod.SGNSTrainer

        class SpyTrainer(original):
            def __init__(self, vocab_size, config=None):
                captured["window"] = config.window
                super().__init__(vocab_size, config)

            def fit(self, sequences, counts, keep_probabilities=None):
                return self  # skip actual training

        sisg_mod.SGNSTrainer = SpyTrainer
        try:
            SISG.sisg_f(dim=4, window=2).fit(train)
            assert captured["window"] == 2 * 9  # 1 item + 8 SI tokens
            SISG.sgns(dim=4, window=2).fit(train)
            assert captured["window"] == 2
        finally:
            sisg_mod.SGNSTrainer = original


class TestColdStartAPI:
    def test_recommend_cold_item(self, fitted_sisg, tiny_dataset):
        si_values = dict(tiny_dataset.items[0].si_values)
        items, scores = fitted_sisg.recommend_cold_item(si_values, k=5)
        assert len(items) == 5

    def test_recommend_cold_user(self, fitted_sisg):
        items, scores = fitted_sisg.recommend_cold_user(k=5, gender="F")
        assert len(items) == 5

    def test_cold_user_unknown_demographic_rejected(self, fitted_sisg):
        with pytest.raises(ValueError, match="unknown gender"):
            fitted_sisg.recommend_cold_user(gender="X")


class TestEngineEndToEnd:
    """The façade trains through every backend with the same surface."""

    @pytest.mark.parametrize("engine", ["parallel", "tns"])
    def test_hogwild_engines_fit_and_recommend(self, tiny_split, engine):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("hogwild engines need fork for multi-process runs")
        train, _ = tiny_split
        model = SISG.sgns(
            dim=8, epochs=1, window=2, negatives=3, seed=11,
            engine=engine, n_workers=2,
        ).fit(train)
        items, scores = model.recommend(train.items[0].item_id, k=5)
        assert len(items) == 5
        assert np.all(np.isfinite(model.model.w_in))
