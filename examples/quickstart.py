"""Quickstart: train SISG on a synthetic marketplace and query it.

Runs in well under a minute on a laptop:

    python examples/quickstart.py

Steps: build a synthetic Taobao-like world, sample behavior sequences,
train the full SISG variant (item SI + user types + asymmetry), retrieve
similar items, and round-trip the model through disk.
"""

import tempfile
from pathlib import Path

from repro import SISG, SyntheticWorld, SyntheticWorldConfig
from repro.core.model import EmbeddingModel
from repro.core.similarity import SimilarityIndex
from repro.utils.logger import configure_basic_logging


def main() -> None:
    configure_basic_logging()

    # 1. A small marketplace: 500 items in a 4x10 category tree.
    config = SyntheticWorldConfig(
        n_items=500,
        n_users=200,
        n_top_categories=4,
        n_leaf_categories=10,
    )
    world = SyntheticWorld(config, seed=7)
    dataset = world.generate_dataset(n_sessions=1500)
    print(
        f"dataset: {dataset.n_items} items, {dataset.n_users} users,"
        f" {dataset.n_sessions} sessions"
    )

    # 2. Train the production variant: SI tokens + user types + asymmetry.
    model = SISG.sisg_f_u_d(
        dim=32, epochs=3, window=3, negatives=5, seed=1
    ).fit(dataset)

    # 3. Retrieve the matching-stage candidate set for an item.
    query = 42
    items, scores = model.recommend(query, k=10)
    print(f"\ntop-10 candidates for item {query} (leaf {dataset.leaf_of(query)}):")
    for item, score in zip(items, scores):
        print(f"  item {int(item):4d}  leaf {dataset.leaf_of(int(item)):3d}"
              f"  score {score:+.3f}")

    # 4. Embeddings live in one joint space: items, SI and user types.
    leaf = dataset.items[query].si_values["leaf_category"]
    si_vec = model.si_vector("leaf_category", leaf)
    print(f"\nleaf_category_{leaf} vector norm: {float((si_vec ** 2).sum()) ** 0.5:.3f}")

    # 5. Persist and reload.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sisg_model"
        model.model.save(path)
        reloaded = EmbeddingModel.load(path)
        index = SimilarityIndex(reloaded)  # the file records "directional"
        again, _ = index.topk(query, k=10)
        assert list(again) == list(items)
        print("\nmodel save/load round-trip OK")


if __name__ == "__main__":
    main()
