"""EGES — Enhanced Graph Embedding with Side information (KDD 2018).

The paper's previous production system [Wang et al., 2018] and the main
baseline of Table III.  Pipeline (Fig. 1(b) of the SISG paper):

1. Build the weighted directed **item graph** from behavior sequences.
2. Generate a corpus of **random walks** on that graph (DeepWalk style,
   transition probability proportional to edge weight).
3. Train a **weighted skip-gram**: every item ``v`` is represented by the
   attention-weighted average of ``1 + n`` embeddings — its own plus one
   per SI value —

       H_v = sum_j softmax(a_v)_j * W_v^j

   with per-item learnable attention ``a_v``.  The aggregated ``H_v``
   plays the input-vector role in SGNS against item *output* vectors.

Structural contrasts with SISG that the paper calls out (Section IV-A):
SI embeddings have **no output vectors** in EGES, user metadata cannot be
used at all (the walk corpus loses the user identity), and the graph
construction discards the order of clicks.

Retrieval uses cosine over the aggregated ``H`` vectors; cold-start items
use the SI embeddings only, with attention renormalized over the SI slots
(the KDD paper's cold-start recipe).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.sampling import AliasSampler, PairGenerator, build_noise_distribution
from repro.core.sgns import lr_at, scatter_update, sgns_gradients
from repro.data.schema import ITEM_SI_FEATURES, BehaviorDataset
from repro.graph.item_graph import build_item_graph
from repro.graph.random_walk import RandomWalker
from repro.utils import (
    ensure_rng,
    get_logger,
    require,
    require_positive,
)

logger = get_logger("baselines.eges")


@dataclass
class EGESConfig:
    """EGES hyper-parameters.

    ``walk_length``/``walks_per_node`` control the random-walk corpus;
    the rest mirror the SGNS knobs.
    """

    dim: int = 32
    window: int = 5
    negatives: int = 5
    epochs: int = 2
    learning_rate: float = 0.025
    min_lr_fraction: float = 1e-2
    batch_size: int = 4096
    walk_length: int = 10
    walks_per_node: int = 5
    noise_alpha: float = 0.75
    max_step_norm: float | None = 0.25
    seed: int = 0

    def validate(self) -> None:
        require_positive(self.dim, "dim")
        require_positive(self.window, "window")
        require_positive(self.negatives, "negatives")
        require_positive(self.epochs, "epochs")
        require_positive(self.learning_rate, "learning_rate")
        require_positive(self.batch_size, "batch_size")
        require_positive(self.walk_length, "walk_length")
        require_positive(self.walks_per_node, "walks_per_node")


class EGES:
    """The EGES baseline with the retrieval interface of the evaluators.

    After :meth:`fit`, ``topk`` / ``topk_batch`` / ``__contains__`` work
    like :class:`repro.core.similarity.SimilarityIndex`.
    """

    def __init__(self, config: EGESConfig | None = None) -> None:
        self.config = config or EGESConfig()
        self.config.validate()
        self._fitted = False

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def fit(self, dataset: BehaviorDataset) -> "EGES":
        """Build the graph, generate walks, train the weighted skip-gram."""
        cfg = self.config
        rng = ensure_rng(cfg.seed)
        n_items = dataset.n_items

        # --- SI value spaces: one id block per feature, after the items.
        self._si_offsets: dict[str, int] = {}
        next_slot = n_items
        for feature in ITEM_SI_FEATURES:
            values = {item.si_values[feature] for item in dataset.items}
            self._si_offsets[feature] = next_slot
            self._si_value_maps = getattr(self, "_si_value_maps", {})
            self._si_value_maps[feature] = {
                value: next_slot + rank for rank, value in enumerate(sorted(values))
            }
            next_slot += len(values)
        n_slots = next_slot
        n_views = 1 + len(ITEM_SI_FEATURES)

        # Constituent ids per item: [item, si_1, ..., si_n].
        self._constituents = np.empty((n_items, n_views), dtype=np.int64)
        for item in dataset.items:
            row = [item.item_id]
            for feature in ITEM_SI_FEATURES:
                row.append(self._si_value_maps[feature][item.si_values[feature]])
            self._constituents[item.item_id] = row

        # Parameters.
        d = cfg.dim
        self._embeddings = (rng.random((n_slots, d)) - 0.5) / d
        self._outputs = np.zeros((n_items, d))
        self._attention = np.zeros((n_items, n_views))

        # --- walk corpus.
        graph = build_item_graph(dataset)
        walker = RandomWalker(
            graph, walk_length=cfg.walk_length, walks_per_node=cfg.walks_per_node
        )
        walks = walker.generate_walks(seed=rng)
        walks = [w for w in walks if len(w) >= 2]
        require(len(walks) > 0, "random-walk corpus is empty; dataset too sparse")

        noise = build_noise_distribution(
            np.maximum(graph.node_frequency, 0.0), cfg.noise_alpha
        )
        sampler = AliasSampler(noise)
        generator = PairGenerator(
            walks, window=cfg.window, directional=False, seed=rng
        )
        total_pairs = generator.count_pairs() * cfg.epochs
        seen = 0
        for epoch in range(cfg.epochs):
            for centers, contexts in generator.batches(cfg.batch_size):
                lr = lr_at(cfg, seen, total_pairs)
                self._update_batch(centers, contexts, sampler, lr, rng)
                seen += len(centers)
            logger.info("EGES epoch %d/%d done (%d pairs)", epoch + 1, cfg.epochs, seen)

        self._build_index(dataset)
        self._fitted = True
        return self

    def _aggregate(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Aggregated ``H`` for ``items``: returns (H, per-view weights, views)."""
        views = self._embeddings[self._constituents[items]]  # (B, S, d)
        logits = self._attention[items]  # (B, S)
        logits = logits - logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        weights /= weights.sum(axis=1, keepdims=True)
        h = np.einsum("bs,bsd->bd", weights, views)
        return h, weights, views

    def _update_batch(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        sampler: AliasSampler,
        lr: float,
        rng: np.random.Generator,
    ) -> None:
        cfg = self.config
        h, weights, views = self._aggregate(centers)
        negatives = sampler.sample((len(centers), cfg.negatives), rng)
        # The SGNS step with the aggregated H_v as the centre vector.
        grad_h, grad_z, _loss = sgns_gradients(
            h, self._outputs[contexts], self._outputs[negatives]
        )

        # Through the attention-weighted average into the constituents.
        grad_views = weights[..., None] * grad_h[:, None, :]  # (B, S, d)
        # And into the attention logits.
        g_per_view = np.einsum("bd,bsd->bs", grad_h, views)
        grad_logits = weights * (
            g_per_view - np.einsum("bs,bs->b", weights, g_per_view)[:, None]
        )

        d = cfg.dim
        scatter = partial(scatter_update, lr=lr, max_step_norm=cfg.max_step_norm)
        scatter(
            self._embeddings,
            self._constituents[centers].ravel(),
            grad_views.reshape(-1, d),
        )
        scatter(self._outputs, contexts, grad_z[: len(contexts)])
        scatter(self._outputs, negatives.ravel(), grad_z[len(contexts) :])
        scatter(self._attention, centers, grad_logits)

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------

    def _build_index(self, dataset: BehaviorDataset) -> None:
        all_items = np.arange(dataset.n_items, dtype=np.int64)
        h, _weights, _views = self._aggregate(all_items)
        norms = np.linalg.norm(h, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        self._index_vectors = h / norms
        self._item_ids = all_items

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("EGES is not fitted; call fit() first")

    def __contains__(self, item_id: int) -> bool:
        self._require_fitted()
        return 0 <= int(item_id) < len(self._item_ids)

    def item_vector(self, item_id: int) -> np.ndarray:
        """Aggregated (normalized) embedding ``H_v`` of an item."""
        self._require_fitted()
        return self._index_vectors[int(item_id)]

    def cold_item_vector(self, si_values: dict[str, int]) -> np.ndarray:
        """Cold-start embedding from SI views only (attention over SI).

        SI values unseen in training are skipped; at least one must be
        known.
        """
        self._require_fitted()
        vectors = []
        for feature, value in si_values.items():
            slot = self._si_value_maps.get(feature, {}).get(value)
            if slot is not None:
                vectors.append(self._embeddings[slot])
        require(
            len(vectors) > 0,
            "no SI value known to the trained EGES model; cannot build a"
            " cold-start vector",
        )
        return np.mean(vectors, axis=0)

    def topk(self, item_id: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` items by cosine over aggregated embeddings."""
        self._require_fitted()
        require_positive(k, "k")
        scores = self._index_vectors @ self._index_vectors[int(item_id)]
        scores[int(item_id)] = -np.inf
        k = min(k, len(scores) - 1)
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top], kind="stable")]
        return self._item_ids[top], scores[top]

    def topk_by_vector(self, vector: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` items for an arbitrary vector (cold start)."""
        self._require_fitted()
        require_positive(k, "k")
        vector = np.asarray(vector, dtype=np.float64)
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector = vector / norm
        scores = self._index_vectors @ vector
        k = min(k, len(scores))
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top], kind="stable")]
        return self._item_ids[top], scores[top]

    def topk_batch(self, item_ids: np.ndarray, k: int) -> np.ndarray:
        """Batched retrieval (evaluator interface), padded with ``-1``."""
        self._require_fitted()
        require_positive(k, "k")
        item_ids = np.asarray(item_ids, dtype=np.int64)
        scores = self._index_vectors[item_ids] @ self._index_vectors.T
        scores[np.arange(len(item_ids)), item_ids] = -np.inf
        kk = min(k, scores.shape[1] - 1)
        top = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        row_scores = np.take_along_axis(scores, top, axis=1)
        order = np.argsort(-row_scores, axis=1, kind="stable")
        top = np.take_along_axis(top, order, axis=1)
        out = np.full((len(item_ids), k), -1, dtype=np.int64)
        out[:, :kk] = top
        return out
