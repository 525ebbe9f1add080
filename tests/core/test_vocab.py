"""Unit tests for the token vocabulary."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.vocab import TokenKind, Vocabulary


def make_vocab() -> Vocabulary:
    vocab = Vocabulary()
    vocab.add("item_0", TokenKind.ITEM, 0, count=5)
    vocab.add("item_1", TokenKind.ITEM, 1, count=3)
    vocab.add("brand_7", TokenKind.SI, ("brand", 7), count=10)
    vocab.add("UT_F_18-24_low", TokenKind.USER_TYPE, (0, 0, 0, ()), count=2)
    return vocab


class TestAdd:
    def test_assigns_sequential_ids(self):
        vocab = make_vocab()
        assert vocab.id_of("item_0") == 0
        assert vocab.id_of("item_1") == 1
        assert vocab.id_of("brand_7") == 2

    def test_idempotent_add_accumulates_count(self):
        vocab = make_vocab()
        token_id = vocab.add("item_0", TokenKind.ITEM, 0, count=4)
        assert token_id == 0
        assert vocab.count_of(0) == 9

    def test_conflicting_kind_rejected(self):
        vocab = make_vocab()
        with pytest.raises(ValueError, match="already registered"):
            vocab.add("item_0", TokenKind.SI)

    def test_len_and_contains(self):
        vocab = make_vocab()
        assert len(vocab) == 4
        assert "brand_7" in vocab
        assert "brand_8" not in vocab


class TestLookup:
    def test_token_of_roundtrip(self):
        vocab = make_vocab()
        for token in vocab.tokens():
            assert vocab.token_of(vocab.id_of(token)) == token

    def test_get_id_returns_none_for_unknown(self):
        assert make_vocab().get_id("nope") is None

    def test_unknown_token_raises_keyerror(self):
        with pytest.raises(KeyError):
            make_vocab().id_of("missing")

    def test_kind_and_payload(self):
        vocab = make_vocab()
        assert vocab.kind_of(2) is TokenKind.SI
        assert vocab.payload_of(2) == ("brand", 7)

    def test_item_id_of(self):
        vocab = make_vocab()
        assert vocab.item_id_of(1) == 1

    def test_item_id_of_rejects_non_item(self):
        vocab = make_vocab()
        with pytest.raises(ValueError, match="not an item token"):
            vocab.item_id_of(2)


class TestCounts:
    def test_counts_array(self):
        vocab = make_vocab()
        np.testing.assert_array_equal(vocab.counts, [5, 3, 10, 2])

    def test_add_count(self):
        vocab = make_vocab()
        vocab.add_count(1, 7)
        assert vocab.count_of(1) == 10

    def test_add_counts_adds_elementwise(self):
        vocab = make_vocab()
        vocab.add_counts(np.array([1, 0, 4, 2]))
        np.testing.assert_array_equal(vocab.counts, [6, 3, 14, 4])
        assert all(type(vocab.count_of(i)) is int for i in range(4))

    @pytest.mark.parametrize("length", [3, 5])
    def test_add_counts_length_mismatch_rejected(self, length):
        vocab = make_vocab()
        with pytest.raises(ValueError, match=f"counts has length {length}"):
            vocab.add_counts(np.ones(length, dtype=np.int64))
        np.testing.assert_array_equal(vocab.counts, [5, 3, 10, 2])

    def test_top_k_by_count(self):
        vocab = make_vocab()
        np.testing.assert_array_equal(vocab.top_k_by_count(2), [2, 0])

    def test_top_k_larger_than_vocab(self):
        vocab = make_vocab()
        assert len(vocab.top_k_by_count(100)) == 4

    def test_top_k_zero(self):
        assert len(make_vocab().top_k_by_count(0)) == 0

    def test_top_k_negative_rejected(self):
        with pytest.raises(ValueError):
            make_vocab().top_k_by_count(-1)

    def test_top_k_ties_broken_by_id(self):
        vocab = Vocabulary()
        vocab.add("a", TokenKind.SI, count=5)
        vocab.add("b", TokenKind.SI, count=5)
        np.testing.assert_array_equal(vocab.top_k_by_count(2), [0, 1])


def brute_force_ids(vocab: Vocabulary, kind: TokenKind) -> list[int]:
    """The enumeration `ids_of_kind` used to be: every token, one compare."""
    return [i for i in range(len(vocab)) if vocab.kind_of(i) is kind]


def assert_index_matches_enumeration(vocab: Vocabulary) -> None:
    for kind in TokenKind:
        ids = vocab.ids_of_kind(kind)
        assert ids.dtype == np.int64
        assert ids.tolist() == brute_force_ids(vocab, kind)
    items = vocab.ids_of_kind(TokenKind.ITEM)
    assert vocab.item_ids().tolist() == [vocab.item_id_of(int(v)) for v in items]


class TestKinds:
    def test_ids_of_kind(self):
        vocab = make_vocab()
        np.testing.assert_array_equal(vocab.ids_of_kind(TokenKind.ITEM), [0, 1])
        np.testing.assert_array_equal(vocab.ids_of_kind(TokenKind.USER_TYPE), [3])

    def test_index_follows_add_and_ignores_readds(self):
        vocab = make_vocab()
        assert_index_matches_enumeration(vocab)
        vocab.add("item_0", TokenKind.ITEM, 0, count=4)  # re-add: no new id
        vocab.add("item_9", TokenKind.ITEM, 9)
        vocab.add("UT_M_25-30_mid", TokenKind.USER_TYPE, (1, 1, 1, (2,)))
        assert_index_matches_enumeration(vocab)
        assert vocab.ids_of_kind(TokenKind.ITEM).tolist() == [0, 1, 4]

    def test_returned_ids_are_the_callers_to_mutate(self):
        vocab = make_vocab()
        vocab.ids_of_kind(TokenKind.ITEM)[:] = -1
        assert vocab.ids_of_kind(TokenKind.ITEM).tolist() == [0, 1]

    def test_empty_vocabulary(self):
        vocab = Vocabulary()
        assert_index_matches_enumeration(vocab)
        ids, keys = vocab.user_type_keys()
        assert ids.shape == (0,) and keys.shape == (0, 3)

    def test_index_survives_dict_and_pickle_round_trips(self):
        vocab = make_vocab()
        vocab.user_type_keys()  # a built table must not break either trip
        for clone in (
            Vocabulary.from_dict(vocab.to_dict()),
            pickle.loads(pickle.dumps(vocab)),
            vocab.copy(),
        ):
            assert_index_matches_enumeration(clone)
            clone.add("city_3", TokenKind.SI, ("city", 3))
            assert_index_matches_enumeration(clone)

    def test_user_type_keys_follow_growth(self):
        vocab = make_vocab()
        ids, keys = vocab.user_type_keys()
        assert ids.tolist() == [3] and keys.tolist() == [[0, 0, 0]]
        assert vocab.user_type_keys() is vocab.user_type_keys()  # derived once
        with pytest.raises(ValueError, match="read-only"):
            keys[0, 0] = 1
        vocab.add("brand_8", TokenKind.SI, ("brand", 8))
        assert vocab.user_type_keys()[0] is ids  # no new user type: not rebuilt
        vocab.add("UT_M_31-35_high", TokenKind.USER_TYPE, (1, 2, 2, (5, 6)))
        ids, keys = vocab.user_type_keys()
        assert ids.tolist() == [3, 5]
        assert keys.tolist() == [[0, 0, 0], [1, 2, 2]]


class TestCopy:
    def test_copy_equals_original(self):
        vocab = make_vocab()
        clone = vocab.copy()
        assert clone.to_dict() == vocab.to_dict()
        assert clone.to_dict()["tokens"] is not vocab.to_dict()["tokens"]

    def test_growing_the_copy_leaves_the_original_alone(self):
        vocab = make_vocab()
        before = {key: list(value) for key, value in vocab.to_dict().items()}
        clone = vocab.copy()
        assert clone.add("item_2", TokenKind.ITEM, 2, count=1) == len(vocab)
        clone.add("UT_M_18-24_low", TokenKind.USER_TYPE, (1, 0, 0, ()))
        clone.add_count(0, 7)
        assert len(vocab) == 4 and len(clone) == 6
        assert vocab.to_dict() == before
        assert "item_2" not in vocab and "item_2" in clone
        assert vocab.ids_of_kind(TokenKind.ITEM).tolist() == [0, 1]
        assert vocab.user_type_keys()[0].tolist() == [3]
        assert clone.user_type_keys()[0].tolist() == [3, 5]
        assert_index_matches_enumeration(vocab)
        assert_index_matches_enumeration(clone)


class TestSerialization:
    def test_roundtrip_preserves_everything(self):
        vocab = make_vocab()
        clone = Vocabulary.from_dict(vocab.to_dict())
        assert len(clone) == len(vocab)
        for token_id in range(len(vocab)):
            assert clone.token_of(token_id) == vocab.token_of(token_id)
            assert clone.kind_of(token_id) is vocab.kind_of(token_id)
            assert clone.payload_of(token_id) == vocab.payload_of(token_id)
            assert clone.count_of(token_id) == vocab.count_of(token_id)

    def test_roundtrip_after_online_growth(self):
        """The streaming path grows a live vocabulary with `add()` between
        serializations; a round-trip must preserve the grown tail and keep
        assigning ids where the original left off."""
        vocab = make_vocab()
        frozen = Vocabulary.from_dict(vocab.to_dict())
        # Online growth: a new listing's item token + a new SI instance.
        vocab.add("item_2", TokenKind.ITEM, 2, count=1)
        vocab.add("shop_9", TokenKind.SI, ("shop", 9), count=4)
        vocab.add_count(vocab.get_id("item_0"), 2)  # and a warm click
        assert len(vocab) == len(frozen) + 2

        clone = Vocabulary.from_dict(vocab.to_dict())
        assert len(clone) == len(vocab)
        for token_id in range(len(vocab)):
            assert clone.token_of(token_id) == vocab.token_of(token_id)
            assert clone.kind_of(token_id) is vocab.kind_of(token_id)
            assert clone.payload_of(token_id) == vocab.payload_of(token_id)
            assert clone.count_of(token_id) == vocab.count_of(token_id)
        np.testing.assert_array_equal(clone.counts, vocab.counts)
        # The clone keeps growing from where the original stopped.
        assert clone.add("item_3", TokenKind.ITEM, 3) == len(vocab)

    def test_nested_tuple_payload_roundtrip(self):
        vocab = Vocabulary()
        vocab.add("UT_x", TokenKind.USER_TYPE, (1, 2, 0, (3, 4)), count=1)
        clone = Vocabulary.from_dict(vocab.to_dict())
        assert clone.payload_of(0) == (1, 2, 0, (3, 4))

    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=8), st.integers(0, 100)),
            max_size=30,
            unique_by=lambda t: t[0],
        )
    )
    def test_roundtrip_property(self, entries):
        vocab = Vocabulary()
        for token, count in entries:
            vocab.add(token, TokenKind.SI, payload=None, count=count)
        clone = Vocabulary.from_dict(vocab.to_dict())
        assert list(clone.tokens()) == list(vocab.tokens())
        np.testing.assert_array_equal(clone.counts, vocab.counts)
