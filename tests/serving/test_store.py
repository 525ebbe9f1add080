"""Tests for the double-buffered model store and bundle building."""

import pickle

import numpy as np
import pytest

from repro.core.model import EmbeddingModel
from repro.core.similarity import SimilarityIndex
from repro.serving import (
    ModelStore,
    build_bundle,
    build_candidate_table,
    build_shard_bundle,
    popularity_ranking,
)
from repro.serving.store import ModelBundle


class TestPopularityRanking:
    def test_ranked_by_click_count(self, tiny_split):
        train, _ = tiny_split
        items, scores = popularity_ranking(train)
        counts = np.zeros(train.n_items, dtype=np.int64)
        for session in train.sessions:
            for item in session.items:
                counts[item] += 1
        assert counts[items[0]] == counts.max()
        assert np.all(np.diff(counts[items]) <= 0)
        assert scores.sum() == pytest.approx(counts[items].sum() / counts.sum())

    def test_max_items_truncates(self, tiny_split):
        train, _ = tiny_split
        items, scores = popularity_ranking(train, max_items=10)
        assert len(items) == 10 and len(scores) == 10

    def test_empty_sessions(self, tiny_split):
        from repro.data.schema import BehaviorDataset

        train, _ = tiny_split
        empty = BehaviorDataset(train.items, train.users, [], validate=False)
        items, scores = popularity_ranking(empty)
        assert len(items) == train.n_items
        assert np.all(scores == 0.0)


class TestBuildBundle:
    def test_full_coverage(self, fitted_sisg, tiny_split):
        train, _ = tiny_split
        bundle = build_bundle(fitted_sisg.model, train, n_cells=8, seed=0)
        assert len(bundle.table) == bundle.index.n_items
        assert bundle.version == 0
        assert len(bundle.popular_items) > 0

    def test_partial_coverage_leaves_ann_tier(self, serving_bundle):
        n_index = serving_bundle.index.n_items
        assert len(serving_bundle.table) < n_index
        uncovered = [
            int(i)
            for i in serving_bundle.index.item_ids
            if int(i) not in serving_bundle.table
        ]
        assert uncovered and all(i in serving_bundle.ann for i in uncovered)

    def test_partial_coverage_cut_follows_table_order(self, fitted_sisg, tiny_split):
        """Regression: the coverage cut comes from the *table's* row order.

        Slicing ``index.item_ids`` instead can pick items the table never
        materialized; the covered set must be a prefix of the full
        table's own rows, with rows identical to the full build.
        """
        train, _ = tiny_split
        full = build_bundle(
            fitted_sisg.model, train, n_cells=8, table_coverage=1.0, seed=0
        )
        partial = build_bundle(
            fitted_sisg.model, train, n_cells=8, table_coverage=0.6, seed=0
        )
        cut = max(1, int(len(full.table) * 0.6))
        np.testing.assert_array_equal(
            partial.table.item_ids, full.table.item_ids[:cut]
        )
        for item in partial.table.item_ids[:3]:
            got_ids, got_scores = partial.table.topk(int(item), 10)
            want_ids, want_scores = full.table.topk(int(item), 10)
            np.testing.assert_array_equal(got_ids, want_ids)
            np.testing.assert_allclose(got_scores, want_scores)

    def test_partial_coverage_builds_only_the_covered_rows(
        self, fitted_sisg, tiny_split, monkeypatch
    ):
        """Regression: ``table_coverage < 1`` used to run the per-row
        filter loop for *every* item and ``.subset()`` the rest away.

        The covered rows come from one helper shared with the shard
        builder, so at coverage 0.5 the monolithic table and the union
        of three shard tables both equal ``full_table.subset(covered)``
        byte for byte — and the build never scans an uncovered item.
        """
        import repro.serving.store as store_mod

        train, _ = tiny_split
        model = fitted_sisg.model
        index = SimilarityIndex(model)
        covered = index.item_ids[: int(index.n_items * 0.5)]
        want = build_candidate_table(index, train).subset(covered)

        scanned = []
        real_topk_block = SimilarityIndex.topk_block

        def recording_topk_block(self, item_ids, k, exclude_query=True):
            scanned.extend(int(i) for i in item_ids)
            return real_topk_block(self, item_ids, k, exclude_query)

        monkeypatch.setattr(
            store_mod.SimilarityIndex, "topk_block", recording_topk_block
        )
        table = build_bundle(
            model, train, n_cells=4, table_coverage=0.5, seed=0
        ).table
        assert scanned == covered.tolist()

        def same(got, rows):
            np.testing.assert_array_equal(got.item_ids, want.item_ids[rows])
            assert got._candidates.tobytes() == want._candidates[rows].tobytes()
            assert got._scores.tobytes() == want._scores[rows].tobytes()

        same(table, np.arange(len(want)))
        assignment = np.arange(train.n_items) % 3
        seen = []
        for shard in range(3):
            shard_table = build_shard_bundle(
                model, train, np.flatnonzero(assignment == shard),
                index=index, n_cells=4, table_coverage=0.5, seed=0,
            ).table
            same(shard_table, want._rows_of(shard_table.item_ids))
            seen.extend(shard_table.item_ids.tolist())
        assert sorted(seen) == sorted(covered.tolist())

    def test_invalid_coverage(self, fitted_sisg, tiny_split):
        train, _ = tiny_split
        with pytest.raises(ValueError):
            build_bundle(fitted_sisg.model, train, table_coverage=0.0)
        with pytest.raises(ValueError):
            build_bundle(fitted_sisg.model, train, table_coverage=1.5)


class TestModelStore:
    def test_current_returns_bundle(self, fresh_store, serving_bundle):
        current = fresh_store.current()
        assert isinstance(current, ModelBundle)
        assert current.table is serving_bundle.table
        assert fresh_store.version == 0

    def test_swap_increments_version_and_returns_old(
        self, fresh_store, serving_bundle
    ):
        old = fresh_store.swap(serving_bundle)
        assert old.version == 0
        assert fresh_store.version == 1
        fresh_store.swap(serving_bundle)
        assert fresh_store.version == 2

    def test_swap_overrides_stale_version_stamp(self, fresh_store, serving_bundle):
        from dataclasses import replace

        stale = replace(serving_bundle, version=-5)
        fresh_store.swap(stale)
        assert fresh_store.version == 1  # strictly increasing regardless

    def test_snapshot_survives_swap(self, fresh_store, serving_bundle):
        snapshot = fresh_store.current()
        fresh_store.swap(serving_bundle)
        # The old snapshot still answers queries consistently.
        item = int(snapshot.table._items[0])
        items, scores = snapshot.table.topk(item, 5)
        assert len(items) == len(scores)
        assert snapshot.version == 0
        assert fresh_store.current().version == 1

    def test_refresh_builds_and_swaps(self, fitted_sisg, tiny_split, fresh_store):
        train, _ = tiny_split
        old = fresh_store.refresh(
            fitted_sisg.model, train, n_cells=8, table_coverage=0.9, seed=3
        )
        assert old.version == 0
        assert fresh_store.version == 1
        assert len(fresh_store.current().table) < fresh_store.current().index.n_items

    def test_generation_age_survives_wall_clock_steps(
        self, serving_bundle, monkeypatch
    ):
        """Regression: the age gauge must come off the monotonic clock.

        An NTP step between swap and read used to drive
        ``generation_age_s`` negative (or inflate it), which tripped the
        refresh daemon's staleness alarm on healthy stores.
        """
        import repro.serving.store as store_mod

        wall = {"t": 1_000_000.0}
        mono = {"t": 50.0}
        monkeypatch.setattr(store_mod.time, "time", lambda: wall["t"])
        monkeypatch.setattr(store_mod.time, "monotonic", lambda: mono["t"])
        store = ModelStore(serving_bundle)
        mono["t"] += 7.5
        wall["t"] -= 3600.0  # wall clock steps an hour backwards
        assert store.generation_age_s == pytest.approx(7.5)
        assert store.swapped_at == pytest.approx(1_000_000.0)
        store.swap(serving_bundle)
        mono["t"] += 2.0
        assert store.generation_age_s == pytest.approx(2.0)


@pytest.fixture()
def shared_bundle(fitted_sisg, tiny_split):
    """A zero-copy bundle over a *copy* of the shared model.

    ``share_object`` swaps the model's arrays for read-only segment
    views in place, so the session-scoped fitted model must not be the
    one shared.
    """
    train, _ = tiny_split
    source = fitted_sisg.model
    model = EmbeddingModel(
        source.vocab, source.w_in.copy(), source.w_out.copy()
    )
    bundle = build_bundle(
        model,
        train,
        n_cells=8,
        seed=0,
        ann_precision="int8",
        share_memory=True,
    )
    yield bundle
    bundle.release()


class TestSharedBundle:
    def test_segments_recorded_and_deduped(self, shared_bundle):
        assert shared_bundle.segments
        names = shared_bundle.segment_names
        assert len(names) == len(set(names))
        # The ANN index rides on the similarity index's matrix; sharing
        # must keep that aliasing (one segment, one physical copy).
        assert shared_bundle.ann._candidates is shared_bundle.index._candidates

    def test_pickle_ships_handles_not_bytes(self, shared_bundle):
        blob = pickle.dumps(shared_bundle)
        payload = sum(h.nbytes for h in shared_bundle.segments)
        assert len(blob) < payload
        clone = pickle.loads(blob)
        item = int(shared_bundle.index.item_ids[0])
        want_ids, want_scores = shared_bundle.ann.topk(item, 10)
        got_ids, got_scores = clone.ann.topk(item, 10)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_scores, want_scores)
        assert clone.ann._candidates is clone.index._candidates

    def test_swap_preserves_segments(self, fresh_store, shared_bundle):
        fresh_store.swap(shared_bundle)
        assert fresh_store.current().segment_names == shared_bundle.segment_names

    def test_release_keeps_live_views_readable(self, shared_bundle):
        """Retiring a generation must not dangle in-flight readers."""
        item = int(shared_bundle.index.item_ids[0])
        want_ids, want_scores = shared_bundle.ann.topk(item, 10)
        shared_bundle.release()
        shared_bundle.release()  # idempotent
        assert all(h.released for h in shared_bundle.segments)
        got_ids, got_scores = shared_bundle.ann.topk(item, 10)
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_scores, want_scores)

    def test_release_unlinks_for_late_attachers(self, shared_bundle):
        stale = pickle.loads(pickle.dumps(shared_bundle.segments[0]))
        shared_bundle.release()
        with pytest.raises(FileNotFoundError):
            _ = stale.array

    def test_reshare_roundtrip_matches_plain_bundle(
        self, fitted_sisg, tiny_split, shared_bundle
    ):
        train, _ = tiny_split
        plain = build_bundle(
            fitted_sisg.model, train, n_cells=8, seed=0, ann_precision="int8"
        )
        clone = pickle.loads(pickle.dumps(shared_bundle))
        for item in plain.index.item_ids[:5]:
            want_ids, want_scores = plain.ann.topk(int(item), 10)
            got_ids, got_scores = clone.ann.topk(int(item), 10)
            np.testing.assert_array_equal(got_ids, want_ids)
            np.testing.assert_array_equal(got_scores, want_scores)
