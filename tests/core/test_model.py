"""Unit tests for the embedding model container and persistence."""

import numpy as np
import pytest

from repro.core.model import EmbeddingModel
from repro.core.vocab import TokenKind, Vocabulary


def make_model(dim=4) -> EmbeddingModel:
    vocab = Vocabulary()
    vocab.add("item_0", TokenKind.ITEM, 0, count=3)
    vocab.add("item_1", TokenKind.ITEM, 1, count=1)
    vocab.add("brand_2", TokenKind.SI, ("brand", 2), count=4)
    vocab.add("UT_F_18-24_low", TokenKind.USER_TYPE, (0, 0, 0, ()), count=2)
    rng = np.random.default_rng(0)
    return EmbeddingModel(vocab, rng.normal(size=(4, dim)), rng.normal(size=(4, dim)))


class TestConstruction:
    def test_shape_mismatch_rejected(self):
        vocab = Vocabulary()
        vocab.add("a", TokenKind.SI)
        with pytest.raises(ValueError):
            EmbeddingModel(vocab, np.zeros((2, 3)), np.zeros((2, 3)))

    def test_in_out_shape_mismatch_rejected(self):
        vocab = Vocabulary()
        vocab.add("a", TokenKind.SI)
        with pytest.raises(ValueError):
            EmbeddingModel(vocab, np.zeros((1, 3)), np.zeros((1, 4)))

    def test_dim(self):
        assert make_model(dim=6).dim == 6

    def test_similarity_defaults_to_cosine(self):
        assert make_model().similarity == "cosine"

    def test_unknown_similarity_rejected(self):
        model = make_model()
        with pytest.raises(ValueError, match="similarity"):
            EmbeddingModel(model.vocab, model.w_in, model.w_out, "euclidean")


class TestVectorAccess:
    def test_vector_input_vs_output(self):
        model = make_model()
        np.testing.assert_array_equal(model.vector("item_0"), model.w_in[0])
        np.testing.assert_array_equal(
            model.vector("item_0", output=True), model.w_out[0]
        )

    def test_item_vector(self):
        model = make_model()
        np.testing.assert_array_equal(model.item_vector(1), model.w_in[1])

    def test_unknown_token_raises(self):
        with pytest.raises(KeyError):
            make_model().vector("item_99")

    def test_has_token(self):
        model = make_model()
        assert model.has_token("brand_2")
        assert not model.has_token("brand_3")

    def test_tokens_of_kind(self):
        model = make_model()
        assert model.tokens_of_kind(TokenKind.ITEM) == ["item_0", "item_1"]


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        model = make_model()
        model.save(tmp_path / "model")
        loaded = EmbeddingModel.load(tmp_path / "model")
        np.testing.assert_allclose(loaded.w_in, model.w_in)
        np.testing.assert_allclose(loaded.w_out, model.w_out)
        assert list(loaded.vocab.tokens()) == list(model.vocab.tokens())
        assert loaded.vocab.payload_of(3) == (0, 0, 0, ())

    def test_save_load_roundtrips_the_similarity(self, tmp_path):
        source = make_model()
        model = EmbeddingModel(source.vocab, source.w_in, source.w_out, "directional")
        model.save(tmp_path / "model")
        loaded = EmbeddingModel.load(tmp_path / "model")
        assert loaded.similarity == "directional"

        from repro.core.similarity import SimilarityIndex

        assert SimilarityIndex(loaded).mode == "directional"

    def test_file_without_a_similarity_loads_as_cosine(self, tmp_path):
        """A model saved before the similarity was recorded: matrices
        only in the ``.npz``."""
        model = make_model()
        model.save(tmp_path / "old")
        np.savez_compressed(tmp_path / "old.npz", w_in=model.w_in, w_out=model.w_out)
        assert EmbeddingModel.load(tmp_path / "old").similarity == "cosine"

    def test_save_creates_parent_dirs(self, tmp_path):
        model = make_model()
        model.save(tmp_path / "deep" / "nested" / "model")
        assert (tmp_path / "deep" / "nested" / "model.npz").exists()

    def test_loaded_model_supports_retrieval(self, tmp_path):
        from repro.core.similarity import SimilarityIndex

        model = make_model()
        model.save(tmp_path / "m")
        loaded = EmbeddingModel.load(tmp_path / "m")
        index = SimilarityIndex(loaded, mode="cosine")
        items, _scores = index.topk(0, k=1)
        assert items[0] == 1
