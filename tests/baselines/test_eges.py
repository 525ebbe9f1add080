"""Unit tests for the EGES baseline."""

from functools import partial

import numpy as np
import pytest

from repro.baselines.eges import EGES, EGESConfig
from repro.core.sgns import scatter_update, sigmoid


@pytest.fixture(scope="module")
def fitted_eges(tiny_split):
    train, _ = tiny_split
    return EGES(EGESConfig(dim=12, epochs=1, walk_length=6, walks_per_node=2,
                           seed=5)).fit(train)


class TestConfig:
    def test_defaults_valid(self):
        EGESConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dim", 0),
            ("window", 0),
            ("negatives", 0),
            ("epochs", 0),
            ("walk_length", 0),
            ("walks_per_node", 0),
        ],
    )
    def test_invalid_rejected(self, field, value):
        cfg = EGESConfig()
        setattr(cfg, field, value)
        with pytest.raises(ValueError):
            cfg.validate()


class TestGuards:
    def test_unfitted_topk_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            EGES().topk(0, 5)

    def test_unfitted_contains_raises(self):
        with pytest.raises(RuntimeError):
            0 in EGES()


class TestFittedModel:
    def test_contains_all_items(self, fitted_eges, tiny_dataset):
        assert 0 in fitted_eges
        assert tiny_dataset.n_items - 1 in fitted_eges
        assert tiny_dataset.n_items not in fitted_eges

    def test_item_vectors_normalized(self, fitted_eges, tiny_dataset):
        for item_id in range(0, tiny_dataset.n_items, 37):
            norm = np.linalg.norm(fitted_eges.item_vector(item_id))
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_topk_excludes_query(self, fitted_eges):
        items, scores = fitted_eges.topk(0, 10)
        assert 0 not in items
        assert np.all(np.diff(scores) <= 1e-12)

    def test_topk_batch_matches_single(self, fitted_eges):
        batch = fitted_eges.topk_batch(np.array([0, 5, 9]), k=6)
        for row, query in enumerate([0, 5, 9]):
            single, _ = fitted_eges.topk(query, 6)
            np.testing.assert_array_equal(batch[row], single)

    def test_attention_weights_trainable(self, fitted_eges):
        """Attention logits must have moved for frequently seen items."""
        assert np.any(fitted_eges._attention != 0.0)

    def test_parameters_finite(self, fitted_eges):
        assert np.all(np.isfinite(fitted_eges._embeddings))
        assert np.all(np.isfinite(fitted_eges._outputs))
        assert np.all(np.isfinite(fitted_eges._attention))

    def test_same_leaf_items_cluster(self, fitted_eges, tiny_dataset):
        """SI sharing should pull same-leaf items together.

        Averaged over several popular queries, the same-leaf fraction of
        the top-10 must clearly exceed the random baseline (~0.05: leaves
        hold ~10 of the 200 items, and this fixture trains one short
        epoch, so only a weak pull is guaranteed).
        """
        counts = np.zeros(tiny_dataset.n_items)
        for session in tiny_dataset.sessions:
            np.add.at(counts, session.items, 1)
        queries = np.argsort(-counts)[:5]
        same = total = 0
        for query in queries:
            items, _ = fitted_eges.topk(int(query), 10)
            leaf = tiny_dataset.leaf_of(int(query))
            same += sum(tiny_dataset.leaf_of(int(i)) == leaf for i in items)
            total += len(items)
        assert same / total > 0.12


class TestColdStart:
    def test_cold_vector_from_si(self, fitted_eges, tiny_dataset):
        si = dict(tiny_dataset.items[0].si_values)
        vec = fitted_eges.cold_item_vector(si)
        assert vec.shape == (12,)
        assert np.any(vec != 0.0)

    def test_unknown_si_rejected(self, fitted_eges):
        with pytest.raises(ValueError, match="no SI value"):
            fitted_eges.cold_item_vector({"brand": 10**9})

    def test_cold_retrieval(self, fitted_eges, tiny_dataset):
        si = dict(tiny_dataset.items[0].si_values)
        vec = fitted_eges.cold_item_vector(si)
        items, _ = fitted_eges.topk_by_vector(vec, k=5)
        assert len(items) == 5


class TestEvaluatorIntegration:
    def test_hitrate_protocol(self, fitted_eges, tiny_split):
        from repro.eval.hitrate import evaluate_hitrate

        _, test = tiny_split
        result = evaluate_hitrate(fitted_eges, test, ks=(10,), name="EGES")
        assert 0.0 <= result.hit_rates[10] <= 1.0

    def test_deterministic_given_seed(self, tiny_split):
        train, _ = tiny_split
        cfg = EGESConfig(dim=8, epochs=1, walk_length=4, walks_per_node=1, seed=2)
        a = EGES(cfg).fit(train)
        b = EGES(cfg).fit(train)
        np.testing.assert_array_equal(a._embeddings, b._embeddings)


def reference_update_batch(self, centers, contexts, sampler, lr, rng):
    """``EGES._update_batch`` with the SGNS step as it was: the output
    rows' gradients written out as one dense ``(B * (1 + n), d)`` block
    (positives, then negatives) and scattered from it."""
    cfg = self.config
    h, weights, views = self._aggregate(centers)
    negatives = sampler.sample((len(centers), cfg.negatives), rng)
    positives, negative_rows = self._outputs[contexts], self._outputs[negatives]
    pos_sig = sigmoid(np.einsum("bd,bd->b", h, positives))
    g_pos = pos_sig - 1.0
    neg_sig = sigmoid(np.einsum("bd,bnd->bn", h, negative_rows))
    grad_h = g_pos[:, None] * positives + np.einsum("bn,bnd->bd", neg_sig, negative_rows)
    d = cfg.dim
    grad_z = np.concatenate(
        (g_pos[:, None] * h, (neg_sig[..., None] * h[:, None, :]).reshape(-1, d))
    )
    grad_views = weights[..., None] * grad_h[:, None, :]
    g_per_view = np.einsum("bd,bsd->bs", grad_h, views)
    grad_logits = weights * (
        g_per_view - np.einsum("bs,bs->b", weights, g_per_view)[:, None]
    )
    scatter = partial(scatter_update, lr=lr, max_step_norm=cfg.max_step_norm)
    scatter(self._embeddings, self._constituents[centers].ravel(), grad_views.reshape(-1, d))
    scatter(self._outputs, contexts, grad_z[: len(contexts)])
    scatter(self._outputs, negatives.ravel(), grad_z[len(contexts) :])
    scatter(self._attention, centers, grad_logits)


class TestTrainedBytesMatchReference:
    """EGES trains through the shared SGNS step; with the step's output
    gradients in coefficient form it trains the bytes the dense-block
    step trained."""

    def test_fit(self, tiny_split, monkeypatch):
        cfg = EGESConfig(dim=8, epochs=2, walk_length=6, walks_per_node=2,
                         batch_size=64, seed=3)
        ours = EGES(cfg).fit(tiny_split[0])
        monkeypatch.setattr(EGES, "_update_batch", reference_update_batch)
        ref = EGES(cfg).fit(tiny_split[0])
        for name in ("_embeddings", "_outputs", "_attention", "_index_vectors"):
            a, b = getattr(ours, name), getattr(ref, name)
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
        assert np.any(ours._outputs != 0.0)
