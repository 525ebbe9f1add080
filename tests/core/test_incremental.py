"""Tests for warm-start (incremental) daily retraining."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.incremental import embedding_drift, incremental_update
from repro.core.sgns import SGNSConfig
from repro.core.similarity import SimilarityIndex
from repro.core.vocab import TokenKind
from repro.data.schema import BehaviorDataset, ItemMeta
from repro.data.synthetic import SyntheticWorld


@pytest.fixture(scope="module")
def two_days(tiny_world: SyntheticWorld):
    """Day-1 dataset, plus a day-2 dataset with three brand-new items."""
    users = tiny_world.generate_users()
    day1 = BehaviorDataset(
        tiny_world.items, users, tiny_world.generate_sessions(users, 500),
        validate=False,
    )
    # Day 2: same world, fresh sessions, plus new items cloned from
    # existing ones' SI (new listings in known categories).
    new_items = list(tiny_world.items)
    clones = []
    for base in (0, 50, 100):
        new_id = len(new_items)
        clone = ItemMeta(new_id, dict(tiny_world.items[base].si_values))
        new_items.append(clone)
        clones.append((new_id, base))
    sessions = tiny_world.generate_sessions(users, 500)
    # Splice the new items right after their SI twins so they get traffic.
    for idx, (new_id, base) in enumerate(clones):
        for session in sessions[idx::17]:
            if base in session.items:
                session.items.insert(session.items.index(base) + 1, new_id)
    day2 = BehaviorDataset(new_items, users, sessions, validate=False)
    return day1, day2, clones


@pytest.fixture(scope="module")
def day1_model(two_days):
    from repro.core.sisg import SISG

    day1, _day2, _clones = two_days
    return SISG.sisg_f(dim=12, epochs=2, window=2, negatives=4, seed=1).fit(
        day1
    ).model


CONT_CFG = SGNSConfig(dim=12, epochs=1, window=4, negatives=4, seed=2)
#: Both precisions the continuation can train in.
DTYPES = ("float64", "float32")


class TestPrecision:
    """The warm start trains in ``config.dtype``; the model it returns
    is float64 either way."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_continuation_trains_in_configured_dtype(
        self, two_days, day1_model, fit_dtypes, dtype
    ):
        _day1, day2, _clones = two_days
        updated = incremental_update(
            day1_model, day2, replace(CONT_CFG, dtype=dtype)
        )
        assert fit_dtypes == [(dtype, dtype)]
        assert updated.w_in.dtype == updated.w_out.dtype == np.float64


class TestIncrementalUpdate:
    def test_vocabulary_ids_preserved(self, two_days, day1_model):
        _day1, day2, _clones = two_days
        updated = incremental_update(day1_model, day2, CONT_CFG)
        for token_id, token in enumerate(day1_model.vocab.tokens()):
            assert updated.vocab.id_of(token) == token_id

    def test_new_items_get_vectors(self, two_days, day1_model):
        _day1, day2, clones = two_days
        updated = incremental_update(day1_model, day2, CONT_CFG)
        for new_id, _base in clones:
            vec = updated.item_vector(new_id)
            assert np.linalg.norm(vec) > 0

    def test_new_item_lands_near_si_twin(self, two_days, day1_model):
        """SI warm-start: a new item must retrieve near its metadata twin,
        in either precision."""
        _day1, day2, clones = two_days
        for dtype in DTYPES:
            updated = incremental_update(
                day1_model, day2, replace(CONT_CFG, dtype=dtype)
            )
            index = SimilarityIndex(updated, mode="cosine")
            hits = 0
            for new_id, base in clones:
                items, _ = index.topk(new_id, k=30)
                twin_leaf = day2.leaf_of(base)
                same_leaf = sum(day2.leaf_of(int(i)) == twin_leaf for i in items)
                hits += same_leaf >= 5
            assert hits >= 2, dtype

    def test_warm_start_initializer_matches_cold_start(
        self, two_days, day1_model, monkeypatch
    ):
        """Regression: the SI warm start is Eq. 6's *sum*, not a mean.

        With training disabled, a new item's initial vector must equal
        exactly what `infer_cold_item_vector` would answer for its SI, in
        the continuation's precision — the warm-started item enters the
        space where cold-start retrieval already places it.
        """
        from repro.core import incremental as incremental_module
        from repro.core.coldstart import infer_cold_item_vector

        monkeypatch.setattr(
            incremental_module.SGNSTrainer,
            "fit",
            lambda self, *args, **kwargs: self,
        )
        _day1, day2, clones = two_days
        for dtype in DTYPES:
            updated = incremental_update(
                day1_model, day2, replace(CONT_CFG, dtype=dtype)
            )
            for new_id, _base in clones:
                expected = infer_cold_item_vector(
                    day1_model, day2.items[new_id].si_values
                ).astype(dtype)
                np.testing.assert_array_equal(
                    updated.item_vector(new_id), expected, err_msg=dtype
                )

    def test_previous_model_not_mutated(self, two_days, day1_model):
        _day1, day2, _clones = two_days
        before = day1_model.w_in.copy()
        incremental_update(day1_model, day2, CONT_CFG)
        np.testing.assert_array_equal(day1_model.w_in, before)

    def test_drift_is_bounded(self, two_days, day1_model):
        """Warm-started vectors stay close to yesterday's (the point of
        warm starting), in either precision."""
        _day1, day2, _clones = two_days
        for dtype in DTYPES:
            updated = incremental_update(
                day1_model, day2, replace(CONT_CFG, dtype=dtype), lr_decay=0.3
            )
            drift = embedding_drift(day1_model, updated, kind=TokenKind.ITEM)
            assert 0.0 <= drift < 0.5, dtype

    def test_lr_decay_validation(self, two_days, day1_model):
        _day1, day2, _clones = two_days
        with pytest.raises(ValueError):
            incremental_update(day1_model, day2, CONT_CFG, lr_decay=0.0)
        with pytest.raises(ValueError):
            incremental_update(day1_model, day2, CONT_CFG, lr_decay=1.5)


def _toy_model(specs):
    """Build a model from ``[(token, kind, payload, vector), ...]``."""
    from repro.core.model import EmbeddingModel
    from repro.core.vocab import Vocabulary

    vocab = Vocabulary()
    rows = []
    for token, kind, payload, vector in specs:
        vocab.add(token, kind, payload=payload, count=1)
        rows.append(np.asarray(vector, dtype=np.float64))
    w_in = np.stack(rows)
    return EmbeddingModel(vocab, w_in, np.zeros_like(w_in))


class TestDrift:
    def test_identical_models_zero_drift(self, day1_model):
        assert embedding_drift(day1_model, day1_model) == pytest.approx(0.0)

    def test_kind_filter(self, two_days, day1_model):
        _day1, day2, _clones = two_days
        updated = incremental_update(day1_model, day2, CONT_CFG)
        item_drift = embedding_drift(day1_model, updated, kind=TokenKind.ITEM)
        total_drift = embedding_drift(day1_model, updated)
        assert item_drift >= 0.0
        assert total_drift >= 0.0

    def test_zero_norm_vectors_excluded_from_mean(self):
        """A token with a zero vector has no direction: it must be
        skipped, not poison the mean with a NaN."""
        previous = _toy_model([
            ("item_0", TokenKind.ITEM, 0, [1.0, 0.0]),
            ("item_1", TokenKind.ITEM, 1, [0.0, 0.0]),  # zero in previous
        ])
        updated = _toy_model([
            ("item_0", TokenKind.ITEM, 0, [0.0, 1.0]),  # orthogonal: drift 1
            ("item_1", TokenKind.ITEM, 1, [1.0, 1.0]),
        ])
        drift = embedding_drift(previous, updated)
        assert drift == pytest.approx(1.0)

    def test_all_zero_vectors_give_zero_drift(self):
        previous = _toy_model([("item_0", TokenKind.ITEM, 0, [0.0, 0.0])])
        updated = _toy_model([("item_0", TokenKind.ITEM, 0, [0.0, 0.0])])
        assert embedding_drift(previous, updated) == 0.0

    def test_kind_filter_separates_token_populations(self):
        specs_prev = [
            ("item_0", TokenKind.ITEM, 0, [1.0, 0.0]),
            ("brand_7", TokenKind.SI, ("brand", 7), [0.0, 1.0]),
        ]
        specs_new = [
            ("item_0", TokenKind.ITEM, 0, [2.0, 0.0]),    # same direction
            ("brand_7", TokenKind.SI, ("brand", 7), [1.0, 0.0]),  # orthogonal
        ]
        previous, updated = _toy_model(specs_prev), _toy_model(specs_new)
        assert embedding_drift(previous, updated, kind=TokenKind.ITEM) == (
            pytest.approx(0.0)
        )
        assert embedding_drift(previous, updated, kind=TokenKind.SI) == (
            pytest.approx(1.0)
        )
        assert embedding_drift(previous, updated) == pytest.approx(0.5)

    def test_disjoint_vocabularies_zero_drift(self):
        previous = _toy_model([("item_0", TokenKind.ITEM, 0, [1.0, 0.0])])
        updated = _toy_model([("item_1", TokenKind.ITEM, 1, [1.0, 0.0])])
        assert embedding_drift(previous, updated) == 0.0

    def test_kind_absent_from_previous_zero_drift(self):
        previous = _toy_model([("item_0", TokenKind.ITEM, 0, [1.0, 0.0])])
        updated = _toy_model([("item_0", TokenKind.ITEM, 0, [1.0, 0.0])])
        assert embedding_drift(previous, updated, kind=TokenKind.SI) == 0.0

    def test_vectorized_matches_naive_loop(self, two_days, day1_model):
        """The searchsorted pairing must agree with the per-token loop it
        replaced, including under a kind filter."""
        _day1, day2, _clones = two_days
        updated = incremental_update(day1_model, day2, CONT_CFG)

        def naive(previous, new, kind):
            shared = []
            for token_id, token in enumerate(previous.vocab.tokens()):
                if kind is not None and previous.vocab.kind_of(token_id) is not kind:
                    continue
                new_id = new.vocab.get_id(token)
                if new_id is not None:
                    shared.append((token_id, new_id))
            if not shared:
                return 0.0
            old_rows = previous.w_in[[a for a, _b in shared]]
            new_rows = new.w_in[[b for _a, b in shared]]
            denom = (
                np.linalg.norm(old_rows, axis=1) * np.linalg.norm(new_rows, axis=1)
            )
            valid = denom > 0
            if not valid.any():
                return 0.0
            cosine = (
                np.einsum("bd,bd->b", old_rows[valid], new_rows[valid])
                / denom[valid]
            )
            return float(np.mean(1.0 - cosine))

        for kind in (None, TokenKind.ITEM, TokenKind.SI):
            assert embedding_drift(day1_model, updated, kind=kind) == (
                pytest.approx(naive(day1_model, updated, kind))
            )
