"""Unit tests for SI-enhanced sequence construction (Eq. 4)."""

import numpy as np
import pytest

from repro.core.enrichment import (
    build_enriched_corpus,
    item_token,
    si_token,
    user_type_key,
    user_type_token,
)
from repro.core.vocab import TokenKind, Vocabulary
from repro.data.schema import (
    ITEM_SI_FEATURES,
    BehaviorDataset,
    ItemMeta,
    Session,
    UserMeta,
)


def tiny_dataset() -> BehaviorDataset:
    items = [
        ItemMeta(i, {f: (i + k) % 3 for k, f in enumerate(ITEM_SI_FEATURES)})
        for i in range(4)
    ]
    users = [
        UserMeta(0, 0, 1, 2, (0, 2)),
        UserMeta(1, 1, 0, 0, ()),
    ]
    sessions = [Session(0, [0, 1, 2]), Session(1, [2, 3])]
    return BehaviorDataset(items, users, sessions)


class TestTokenRendering:
    def test_item_token(self):
        assert item_token(42) == "item_42"

    def test_si_token(self):
        assert si_token("leaf_category", 1234) == "leaf_category_1234"

    def test_user_type_token_includes_all_parts(self):
        user = UserMeta(0, 0, 1, 2, (0, 1))
        token = user_type_token(user)
        assert token == "UT_F_25-30_high_married_haschildren"

    def test_user_type_token_without_tags(self):
        user = UserMeta(0, 1, 0, 0, ())
        assert user_type_token(user) == "UT_M_18-24_low"

    def test_user_type_key_matches_identity(self):
        user = UserMeta(5, 1, 2, 0, (3,))
        assert user_type_key(user) == (1, 2, 0, (3,))


class TestEnrichedStructure:
    def test_sequence_layout_matches_eq4(self):
        """Each item is followed by its SI tokens; UT token ends the seq."""
        ds = tiny_dataset()
        corpus = build_enriched_corpus(ds, with_si=True, with_user_types=True)
        n_si = len(ITEM_SI_FEATURES)
        seq = corpus.sequences[0]
        assert len(seq) == 3 * (1 + n_si) + 1
        vocab = corpus.vocab
        # First token is item_0, then its SI in Table-I order.
        assert vocab.token_of(int(seq[0])) == "item_0"
        for k, feature in enumerate(ITEM_SI_FEATURES):
            expected = si_token(feature, ds.items[0].si_values[feature])
            assert vocab.token_of(int(seq[1 + k])) == expected
        # Next block starts with item_1; last token is the user type.
        assert vocab.token_of(int(seq[1 + n_si])) == "item_1"
        assert vocab.kind_of(int(seq[-1])) is TokenKind.USER_TYPE

    def test_no_si_no_ut_reduces_to_items(self):
        ds = tiny_dataset()
        corpus = build_enriched_corpus(ds, with_si=False, with_user_types=False)
        assert [len(s) for s in corpus.sequences] == [3, 2]
        for seq in corpus.sequences:
            for token_id in seq:
                assert corpus.vocab.kind_of(int(token_id)) is TokenKind.ITEM

    def test_user_types_only(self):
        ds = tiny_dataset()
        corpus = build_enriched_corpus(ds, with_si=False, with_user_types=True)
        assert [len(s) for s in corpus.sequences] == [4, 3]
        assert corpus.vocab.kind_of(int(corpus.sequences[0][-1])) is (
            TokenKind.USER_TYPE
        )

    def test_counts_match_occurrences(self):
        ds = tiny_dataset()
        corpus = build_enriched_corpus(ds, with_si=True, with_user_types=True)
        vocab = corpus.vocab
        # item 2 appears in both sessions.
        assert vocab.count_of(vocab.id_of("item_2")) == 2
        # Total counts equal total tokens.
        assert int(vocab.counts.sum()) == corpus.n_tokens

    def test_item_vocab_ids_cover_all_items(self):
        ds = tiny_dataset()
        corpus = build_enriched_corpus(ds)
        ids = corpus.item_vocab_ids()
        recovered = sorted(corpus.vocab.item_id_of(int(v)) for v in ids)
        assert recovered == [0, 1, 2, 3]

    def test_same_user_type_shared_across_users(self):
        items = [ItemMeta(0, {f: 0 for f in ITEM_SI_FEATURES})]
        users = [UserMeta(0, 0, 0, 0, ()), UserMeta(1, 0, 0, 0, ())]
        sessions = [Session(0, [0]), Session(1, [0])]
        ds = BehaviorDataset(items, users, sessions)
        corpus = build_enriched_corpus(ds, with_si=False, with_user_types=True)
        ut_ids = corpus.vocab.ids_of_kind(TokenKind.USER_TYPE)
        assert len(ut_ids) == 1
        assert corpus.vocab.count_of(int(ut_ids[0])) == 2

    def test_extending_existing_vocab_keeps_ids(self):
        ds = tiny_dataset()
        first = build_enriched_corpus(ds)
        second = build_enriched_corpus(ds, vocab=first.vocab)
        assert second.vocab is first.vocab
        # Frequencies accumulated over both passes.
        vocab = first.vocab
        assert vocab.count_of(vocab.id_of("item_2")) == 4

    def test_n_tokens_and_n_sequences(self):
        ds = tiny_dataset()
        corpus = build_enriched_corpus(ds, with_si=False, with_user_types=False)
        assert corpus.n_sequences == 2
        assert corpus.n_tokens == 5


def loop_counts(dataset, vocab=None, **flags):
    """Frequencies as the per-session ``np.unique`` + per-token
    ``add_count`` loop counted them: the oracle for the one-pass count."""
    start = np.zeros(0, dtype=np.int64) if vocab is None else vocab.counts
    corpus = build_enriched_corpus(dataset, vocab=vocab, **flags)
    expected = np.zeros(len(corpus.vocab), dtype=np.int64)
    expected[: len(start)] = start
    for seq in corpus.sequences:
        unique, occurrences = np.unique(seq, return_counts=True)
        for token_id, occ in zip(unique, occurrences):
            expected[int(token_id)] += int(occ)
    return corpus, expected


class TestOnePassCounts:
    """``build_enriched_corpus`` counts with one ``np.bincount``; the counts
    equal the per-session loop's."""

    @pytest.mark.parametrize(
        "flags",
        [dict(with_si=True, with_user_types=True), dict(with_si=False, with_user_types=False)],
        ids=["si-ut", "plain"],
    )
    def test_tiny_world(self, tiny_dataset, flags):
        corpus, expected = loop_counts(tiny_dataset, **flags)
        np.testing.assert_array_equal(corpus.vocab.counts, expected)

    def test_extended_vocabulary(self, tiny_dataset):
        vocab = build_enriched_corpus(tiny_dataset).vocab
        n_before = len(vocab)
        # A second day with a brand-new item and an extra SI value.
        items = list(tiny_dataset.items)
        si = dict(items[0].si_values)
        si[ITEM_SI_FEATURES[0]] = 10_000
        items.append(ItemMeta(len(items), si))
        sessions = [Session(0, [len(items) - 1, 3, 3]), *tiny_dataset.sessions[:50]]
        day2 = BehaviorDataset(items, tiny_dataset.users, sessions, validate=False)
        corpus, expected = loop_counts(day2, vocab=vocab)
        assert len(corpus.vocab) > n_before
        np.testing.assert_array_equal(corpus.vocab.counts, expected)

    def test_empty_sessions(self):
        ds = tiny_dataset()
        empty = BehaviorDataset(
            ds.items, ds.users, [Session(0, []), *ds.sessions, Session(1, [])],
            validate=False,
        )
        for flags in (dict(with_user_types=True), dict(with_user_types=False)):
            corpus, expected = loop_counts(empty, **flags)
            np.testing.assert_array_equal(corpus.vocab.counts, expected)

    def test_no_sessions(self):
        ds = tiny_dataset()
        corpus = build_enriched_corpus(BehaviorDataset(ds.items, ds.users, [], validate=False))
        assert corpus.n_tokens == 0
        assert int(corpus.vocab.counts.sum()) == 0


class TestAgainstWorldFixture:
    def test_enrichment_scales_token_count(self, tiny_dataset):
        plain = build_enriched_corpus(
            tiny_dataset, with_si=False, with_user_types=False
        )
        enriched = build_enriched_corpus(
            tiny_dataset, with_si=True, with_user_types=True
        )
        n_si = len(ITEM_SI_FEATURES)
        expected = plain.n_tokens * (1 + n_si) + tiny_dataset.n_sessions
        assert enriched.n_tokens == expected


def full_pass_corpus(dataset, with_si=True, with_user_types=True, vocab=None):
    """The reference encoder: every item, SI and user-type token goes
    through ``vocab.add`` in catalogue order, and each session is the
    concatenation of its items' blocks."""
    vocab = Vocabulary() if vocab is None else vocab
    blocks = []
    for item in dataset.items:
        ids = [vocab.add(item_token(item.item_id), TokenKind.ITEM, item.item_id)]
        if with_si:
            for feature in ITEM_SI_FEATURES:
                value = item.si_values[feature]
                ids.append(vocab.add(si_token(feature, value), TokenKind.SI, (feature, value)))
        blocks.append(np.asarray(ids, dtype=np.int64))
    user_type_ids = [
        vocab.add(user_type_token(u), TokenKind.USER_TYPE, user_type_key(u))
        for u in dataset.users
    ] if with_user_types else []
    sequences = []
    for session in dataset.sessions:
        parts = [blocks[i] for i in session.items]
        if with_user_types:
            parts.append(np.asarray([user_type_ids[session.user_id]], dtype=np.int64))
        sequences.append(np.concatenate(parts) if parts else np.empty(0, dtype=np.int64))
    tokens = np.concatenate(sequences) if sequences else np.empty(0, dtype=np.int64)
    vocab.add_counts(np.bincount(tokens, minlength=len(vocab)))
    return vocab, sequences


def assert_same_encoding(fast, reference):
    vocab, sequences = reference
    assert fast.vocab.to_dict() == vocab.to_dict()
    assert len(fast.sequences) == len(sequences)
    for got, want in zip(fast.sequences, sequences):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestExtensionMatchesFullPass:
    """Extending a vocabulary walks only the items that carry a token it
    lacks; the vocabulary and the sequences equal a full pass's."""

    @staticmethod
    def day2(dataset):
        """New items (one with new SI values, one never clicked), a new
        user with a brand-new user type, and sessions that click them."""
        items = list(dataset.items)
        n = len(items)
        fresh = {f: 50_000 + k for k, f in enumerate(ITEM_SI_FEATURES)}
        reused = dict(items[3].si_values)
        items += [ItemMeta(n, fresh), ItemMeta(n + 1, reused), ItemMeta(n + 2, fresh)]
        users = [*dataset.users, UserMeta(len(dataset.users), 1, 4, 2, (0, 1, 2, 3, 4, 5))]
        sessions = [
            Session(len(users) - 1, [n, 5, n + 1]),
            Session(0, [n + 1, n + 1]),
            Session(1, []),
            *dataset.sessions[:40],
        ]
        return BehaviorDataset(items, users, sessions, validate=False)

    @pytest.mark.parametrize(
        "before", [(True, True), (False, True), (True, False), (False, False)],
        ids=["si-ut", "no-si", "no-ut", "plain"],
    )
    @pytest.mark.parametrize("after", [(True, True), (False, False)], ids=["si-ut", "plain"])
    def test_extension(self, tiny_dataset, before, after):
        day2 = self.day2(tiny_dataset)
        flags = dict(with_si=after[0], with_user_types=after[1])
        base = build_enriched_corpus(
            tiny_dataset, with_si=before[0], with_user_types=before[1]
        ).vocab
        fast = build_enriched_corpus(day2, vocab=base.copy(), **flags)
        assert_same_encoding(fast, full_pass_corpus(day2, vocab=base.copy(), **flags))

    def test_known_item_registers_its_si_tokens(self, tiny_dataset):
        base = build_enriched_corpus(tiny_dataset, with_si=False).vocab
        corpus = build_enriched_corpus(tiny_dataset, vocab=base.copy())
        first = tiny_dataset.items[0]
        for feature in ITEM_SI_FEATURES:
            assert si_token(feature, first.si_values[feature]) in corpus.vocab
        assert_same_encoding(corpus, full_pass_corpus(tiny_dataset, vocab=base.copy()))

    @pytest.mark.parametrize("flags", [(True, True), (True, False), (False, True)])
    def test_fresh_vocabulary(self, tiny_dataset, flags):
        kwargs = dict(with_si=flags[0], with_user_types=flags[1])
        assert_same_encoding(
            build_enriched_corpus(tiny_dataset, **kwargs),
            full_pass_corpus(tiny_dataset, **kwargs),
        )

    def test_empty_and_sessionless(self):
        ds = tiny_dataset()
        for sessions in ([], [Session(1, []), Session(0, [])]):
            empty = BehaviorDataset(ds.items, ds.users, sessions, validate=False)
            assert_same_encoding(build_enriched_corpus(empty), full_pass_corpus(empty))
