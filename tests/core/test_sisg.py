"""Unit tests for the SISG façade and its variants."""

import hashlib
import multiprocessing

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

    def test_every_config_field_is_a_constructor_keyword(self):
        model = SISG.sgns(dim=8, scale_faithful_subsampling=False)
        assert model.config.scale_faithful_subsampling is False
        assert model.config.sgns.dim == 8

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

    #: SHA-256 of the float32 ``w_in`` then ``w_out`` bytes of SISG-F-U-D
    #: trained on the tiny world, per (engine, workers).  Each run is
    #: deterministic: one Hogwild worker has nobody to race, and the
    #: simulated cluster replays its workers in a fixed order.  The bytes
    #: depend on numpy's float kernels, so a different numpy build or CPU
    #: may need new pins; a change to training must not.
    ENGINE_DIGESTS = {
        ("local", 1): "4180dbd1e6059f6a5295a9e74a2403187e6e33361fb1059bd4002ace6f245e4b",
        ("parallel", 1): "cb3d9fee7e7d9837555a047b9719f55b128d84e2f954ef9f0cf4cfcd1e2d4bce",
        ("tns", 1): "f66c1f677ea8f5e4c97907e64b49715035898d6f98d0469fb78c576ef1db4f78",
        ("distributed", 2): "a5a330358f13fd11a3a9d333117e156f7e3af588f664cd248decd8dc5fcb8ac7",
    }

    @pytest.mark.parametrize("engine,workers", list(ENGINE_DIGESTS))
    def test_trained_bytes_pinned_per_engine(self, tiny_split, engine, workers):
        if engine == "tns" and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the parameter server needs fork")
        train, _ = tiny_split
        model = SISG.sisg_f_u_d(
            dim=8, epochs=1, window=2, negatives=3, seed=11, dtype="float32",
            engine=engine, n_workers=workers,
        ).fit(train).model
        digest = hashlib.sha256()
        for weights in (model.w_in, model.w_out):
            digest.update(np.ascontiguousarray(weights).tobytes())
        assert digest.hexdigest() == self.ENGINE_DIGESTS[engine, workers]
