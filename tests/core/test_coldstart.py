"""Unit tests for cold-start item (Eq. 6) and cold-start user recipes."""

import itertools
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core.coldstart import (
    cold_user_vector,
    infer_cold_item_vector,
    infer_cold_item_vectors,
    recommend_for_cold_item,
    recommend_for_cold_user,
)
from repro.core.model import EmbeddingModel
from repro.core.similarity import SimilarityIndex
from repro.core.vocab import TokenKind, Vocabulary
from repro.data.schema import (
    AGE_BUCKETS,
    GENDERS,
    PURCHASE_POWERS,
    BehaviorDataset,
    Session,
    UserMeta,
)


def make_model():
    """Two items, two SI tokens, two user types with known vectors."""
    vocab = Vocabulary()
    vocab.add("item_0", TokenKind.ITEM, 0, count=3)
    vocab.add("item_1", TokenKind.ITEM, 1, count=3)
    vocab.add("brand_1", TokenKind.SI, ("brand", 1), count=3)
    vocab.add("style_2", TokenKind.SI, ("style", 2), count=3)
    vocab.add("UT_F_18-24_low", TokenKind.USER_TYPE, (0, 0, 0, ()), count=2)
    vocab.add("UT_F_25-30_low", TokenKind.USER_TYPE, (0, 1, 0, ()), count=2)
    w_in = np.array(
        [
            [1.0, 0.0],  # item_0
            [0.0, 1.0],  # item_1
            [2.0, 0.0],  # brand_1
            [0.0, 0.5],  # style_2
            [4.0, 0.0],  # UT F 18-24
            [0.0, 2.0],  # UT F 25-30
        ]
    )
    return EmbeddingModel(vocab, w_in, np.zeros_like(w_in))


class TestColdItem:
    def test_eq6_sums_known_si_vectors(self):
        model = make_model()
        vec = infer_cold_item_vector(model, {"brand": 1, "style": 2})
        np.testing.assert_allclose(vec, [2.0, 0.5])

    def test_unknown_si_skipped(self):
        model = make_model()
        vec = infer_cold_item_vector(model, {"brand": 1, "style": 99})
        np.testing.assert_allclose(vec, [2.0, 0.0])

    def test_all_unknown_raises(self):
        model = make_model()
        with pytest.raises(ValueError, match="cannot infer"):
            infer_cold_item_vector(model, {"brand": 99})

    def test_batch_rows_are_single_answers(self):
        """The batch entry point answers what the single call does, and
        flags (instead of raising for) an item with no known SI."""
        model = make_model()
        rows = [{"brand": 1, "style": 2}, {"brand": 99}, {"style": 2, "brand": 99}]
        vectors, known = infer_cold_item_vectors(model, rows)
        assert known.tolist() == [True, False, True]
        np.testing.assert_array_equal(vectors[1], [0.0, 0.0])
        for row in (0, 2):
            np.testing.assert_array_equal(
                vectors[row], infer_cold_item_vector(model, rows[row])
            )
        vectors, known = infer_cold_item_vectors(model, [])
        assert vectors.shape == (0, model.dim) and known.shape == (0,)

    def test_retrieval_points_to_si_aligned_item(self):
        model = make_model()
        index = SimilarityIndex(model, mode="cosine")
        items, _ = recommend_for_cold_item(model, index, {"brand": 1}, k=1)
        assert items[0] == 0  # item_0 is aligned with brand_1

    def test_cold_item_of_trained_world_lands_in_leaf(self, fitted_sisg, tiny_dataset):
        """A new item described by an existing item's SI should retrieve
        neighbours concentrated in that item's leaf category."""
        probe = tiny_dataset.items[0]
        items, _ = fitted_sisg.recommend_cold_item(dict(probe.si_values), k=10)
        leaves = [tiny_dataset.leaf_of(int(i)) for i in items]
        assert leaves.count(probe.leaf_category) >= 5


class TestColdUser:
    def test_average_over_matching_types(self):
        model = make_model()
        vec = cold_user_vector(model, gender="F")
        np.testing.assert_allclose(vec, [2.0, 1.0])

    def test_filter_by_age(self):
        model = make_model()
        vec = cold_user_vector(model, gender="F", age_bucket="18-24")
        np.testing.assert_allclose(vec, [4.0, 0.0])

    def test_no_filters_averages_all(self):
        model = make_model()
        vec = cold_user_vector(model)
        np.testing.assert_allclose(vec, [2.0, 1.0])

    def test_no_match_raises(self):
        model = make_model()
        with pytest.raises(ValueError, match="no trained user type"):
            cold_user_vector(model, gender="M")

    def test_invalid_demographics_rejected(self):
        model = make_model()
        with pytest.raises(ValueError, match="unknown age bucket"):
            cold_user_vector(model, age_bucket="90-99")
        with pytest.raises(ValueError, match="unknown purchase power"):
            cold_user_vector(model, purchase_power="ultra")

    def test_retrieval_for_cold_user(self):
        model = make_model()
        index = SimilarityIndex(model, mode="cosine")
        items, _ = recommend_for_cold_user(
            model, index, k=1, gender="F", age_bucket="18-24"
        )
        assert items[0] == 0

    def test_different_demographics_get_different_recs(self, fitted_sisg):
        """Fig. 4's premise: cohorts receive visibly different slates."""
        a, _ = fitted_sisg.recommend_cold_user(k=20, gender="F")
        b, _ = fitted_sisg.recommend_cold_user(k=20, gender="M")
        assert set(a.tolist()) != set(b.tolist())


def scan_cold_user_vector(model, gender=None, age_bucket=None, purchase_power=None):
    """Reference: the per-request vocabulary walk `cold_user_vector` used to be."""
    for value, known in (
        (gender, GENDERS), (age_bucket, AGE_BUCKETS), (purchase_power, PURCHASE_POWERS)
    ):
        if value is not None and value not in known:
            raise ValueError(f"unknown {value!r}")
    matches = []
    for vid in range(len(model.vocab)):
        if model.vocab.kind_of(vid) is not TokenKind.USER_TYPE:
            continue
        gender_idx, age_idx, power_idx, _tags = model.vocab.payload_of(vid)
        if gender is not None and GENDERS[gender_idx] != gender:
            continue
        if age_bucket is not None and AGE_BUCKETS[age_idx] != age_bucket:
            continue
        if purchase_power is not None and PURCHASE_POWERS[power_idx] != purchase_power:
            continue
        matches.append(vid)
    if not matches:
        raise ValueError("no trained user type matches")
    return model.w_in[np.asarray(matches, dtype=np.int64)].mean(axis=0)


ALL_DEMOGRAPHICS = list(
    itertools.product(
        (None, *GENDERS), (None, *AGE_BUCKETS), (None, *PURCHASE_POWERS)
    )
)


def answer_bytes(fn, model):
    """Per combination: the vector's bytes, or ``None`` where ``fn`` raises."""
    out = []
    for combo in ALL_DEMOGRAPHICS:
        try:
            out.append(fn(model, *combo).tobytes())
        except ValueError:
            out.append(None)
    return out


def assert_matches_scan(model):
    assert len(ALL_DEMOGRAPHICS) == 72
    got = answer_bytes(cold_user_vector, model)
    want = answer_bytes(scan_cold_user_vector, model)
    for combo, g, w in zip(ALL_DEMOGRAPHICS, got, want):
        assert (g is None) == (w is None), f"{combo}: only one side raised"
        if g is not None:
            assert np.array_equal(
                np.frombuffer(g, dtype=np.int64), np.frombuffer(w, dtype=np.int64)
            ), combo
    return got


NEW_USER_TYPE = (1, 4, 2, (0, 1, 2, 3))  # M / 46-60 / high, four tags


def day_with_new_user_type(model, train, n_sessions):
    """``train`` plus one user of a type ``model`` has never seen, who clicks."""
    assert NEW_USER_TYPE not in {
        model.vocab.payload_of(int(v))
        for v in model.vocab.ids_of_kind(TokenKind.USER_TYPE)
    }
    newcomer = UserMeta(len(train.users), *NEW_USER_TYPE)
    return BehaviorDataset(
        train.items,
        [*train.users, newcomer],
        [*train.sessions[:n_sessions], Session(newcomer.user_id, [0, 1, 2, 3])],
        validate=False,
    )


def model_with_extra_user_type(model):
    """Copy of ``model`` whose vocabulary grew one SI and one user-type token."""
    vocab = model.vocab.copy()
    vocab.add("brand_10001", TokenKind.SI, ("brand", 10001), count=1)
    vocab.add("UT_test_extra", TokenKind.USER_TYPE, (1, 4, 2, (0,)), count=1)
    rng = np.random.default_rng(5)
    w_in = np.vstack([model.w_in, rng.normal(size=(2, model.dim))])
    return EmbeddingModel(vocab, w_in, np.zeros_like(w_in))


class TestColdUserAgainstScan:
    """The key-table path answers with the bytes the vocabulary scan gave."""

    def test_all_72_combinations_bit_identical(self, fitted_sisg):
        got = assert_matches_scan(fitted_sisg.model)
        assert any(g is None for g in got), "fixture should leave some cohort empty"
        assert sum(g is not None for g in got) > 36

    def test_hand_built_model(self):
        assert_matches_scan(make_model())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gender": "X"},
            {"age_bucket": "90-99"},
            {"purchase_power": "ultra"},
            {"gender": "F", "age_bucket": "18-24", "purchase_power": ""},
        ],
    )
    def test_unknown_strings_raise_on_both(self, fitted_sisg, kwargs):
        for fn in (cold_user_vector, scan_cold_user_vector):
            with pytest.raises(ValueError, match="unknown"):
                fn(fitted_sisg.model, **kwargs)

    def test_model_without_user_types_raises(self, fitted_sgns):
        with pytest.raises(ValueError, match="no trained user type"):
            cold_user_vector(fitted_sgns.model)

    def test_weights_are_read_at_call_time(self):
        """Only vocabulary-derived state is kept: new weights, new answer."""
        model = make_model()
        cold_user_vector(model, gender="F")
        model.w_in[4] = [8.0, 0.0]
        np.testing.assert_allclose(cold_user_vector(model, gender="F"), [4.0, 1.0])


class TestColdUserLifecycle:
    def test_in_place_growth_is_seen_on_the_next_call(self, fitted_sisg, tiny_split):
        from repro.core.enrichment import build_enriched_corpus

        base = fitted_sisg.model
        train, _ = tiny_split
        model = EmbeddingModel(base.vocab.copy(), base.w_in, base.w_out)
        before = assert_matches_scan(model)  # derives the key table
        user_types = model.vocab.ids_of_kind(TokenKind.USER_TYPE)
        day = day_with_new_user_type(model, train, n_sessions=0)
        build_enriched_corpus(day, vocab=model.vocab)  # grows model.vocab in place
        grown_types = model.vocab.ids_of_kind(TokenKind.USER_TYPE)
        assert grown_types.tolist() == [*user_types.tolist(), len(base.vocab)]

        rng = np.random.default_rng(0)
        grown = EmbeddingModel(
            model.vocab,
            np.vstack([base.w_in, rng.normal(size=(1, base.dim))]),
            np.vstack([base.w_out, np.zeros((1, base.dim))]),
        )
        after = assert_matches_scan(grown)
        assert after != before  # the new type moved at least the population mean
        # ...while the generation it was copied from never saw it.
        assert answer_bytes(cold_user_vector, base) == before

    def test_incremental_update_sees_new_user_type_previous_model_does_not(
        self, fitted_sisg, tiny_split
    ):
        from repro.core.incremental import incremental_update
        from repro.core.sgns import SGNSConfig

        previous = fitted_sisg.model
        train, _ = tiny_split
        before = assert_matches_scan(previous)
        day = day_with_new_user_type(previous, train, n_sessions=50)
        updated = incremental_update(
            previous, day, SGNSConfig(dim=previous.dim, epochs=1, window=2, seed=3)
        )
        new_types = set(updated.vocab.ids_of_kind(TokenKind.USER_TYPE).tolist()) - set(
            previous.vocab.ids_of_kind(TokenKind.USER_TYPE).tolist()
        )
        assert len(new_types) == 1 and min(new_types) >= len(previous.vocab)
        assert_matches_scan(updated)
        ids, keys = updated.vocab.user_type_keys()
        new_row = ids.tolist().index(new_types.pop())
        assert keys[new_row].tolist() == [*NEW_USER_TYPE[:3]]
        # Yesterday's generation keeps answering from yesterday's user types.
        assert answer_bytes(cold_user_vector, previous) == before
        assert len(previous.vocab.user_type_keys()[0]) == len(ids) - 1

    def test_copy_growth_leaves_the_original_answers(self, fitted_sisg):
        base = fitted_sisg.model
        before = assert_matches_scan(base)
        grown = model_with_extra_user_type(base)
        after = assert_matches_scan(grown)
        assert after != before
        assert answer_bytes(cold_user_vector, base) == before

    def test_pickle_and_save_load_answer_bit_identically(self, fitted_sisg, tmp_path):
        base = fitted_sisg.model
        want = assert_matches_scan(base)
        base.save(tmp_path / "model")
        for clone in (
            pickle.loads(pickle.dumps(base)),
            EmbeddingModel.load(tmp_path / "model"),
            EmbeddingModel(
                Vocabulary.from_dict(base.vocab.to_dict()), base.w_in, base.w_out
            ),
        ):
            assert answer_bytes(cold_user_vector, clone) == want
            for kind in TokenKind:
                assert clone.vocab.ids_of_kind(kind).tolist() == [
                    i for i in range(len(clone.vocab))
                    if clone.vocab.kind_of(i) is kind
                ]

    def test_concurrent_first_use_returns_the_scan_bytes(self, fitted_sisg):
        base = fitted_sisg.model
        want = answer_bytes(scan_cold_user_vector, base)
        n_threads = 4  # more than the gateway's two executor threads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _round in range(5):
                model = EmbeddingModel(base.vocab.copy(), base.w_in, base.w_out)
                barrier = threading.Barrier(n_threads)
                answers, errors = {}, []

                def first_use(slot, model=model, barrier=barrier, answers=answers):
                    try:
                        barrier.wait(timeout=10)
                        answers[slot] = answer_bytes(cold_user_vector, model)
                    except Exception as exc:  # surfaced below, in the main thread
                        errors.append(exc)

                threads = [
                    threading.Thread(target=first_use, args=(slot,))
                    for slot in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert not errors
                assert all(answers[slot] == want for slot in range(n_threads))
        finally:
            sys.setswitchinterval(interval)
