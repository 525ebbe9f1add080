"""Approximate-nearest-neighbour serving for the matching stage.

Production matching cannot brute-force similarity over the full
catalogue per request; this example trains a SISG model, wraps its index
in the IVF ANN index, and shows the recall/latency trade-off, then
exports the nightly candidate table.

    python examples/ann_serving.py
"""

import time

import numpy as np

from repro import SISG, SyntheticWorld, SyntheticWorldConfig
from repro.core.ann import IVFIndex
from repro.serving.candidates import build_candidate_table
from repro.utils.logger import configure_basic_logging


def main() -> None:
    configure_basic_logging()
    world = SyntheticWorld(
        SyntheticWorldConfig(
            n_items=1500, n_users=300, n_top_categories=5, n_leaf_categories=15
        ),
        seed=4,
    )
    dataset = world.generate_dataset(n_sessions=3000)
    model = SISG.sisg_f(dim=32, epochs=3, window=2, negatives=5, seed=1).fit(
        dataset
    )
    index = model.index

    ivf = IVFIndex(index, n_cells=40, seed=0)
    queries = index.item_ids[:200]

    print("probes  recall@10   us/query (exact = full scan)")
    t0 = time.perf_counter()
    for q in queries:
        index.topk(int(q), 10)
    exact_us = (time.perf_counter() - t0) / len(queries) * 1e6
    for probes in (1, 2, 4, 8):
        recall = ivf.recall_at_k(queries, k=10, n_probe=probes)
        t0 = time.perf_counter()
        for q in queries:
            ivf.topk(int(q), 10, n_probe=probes)
        us = (time.perf_counter() - t0) / len(queries) * 1e6
        print(f"{probes:>6d}  {recall:>9.3f}  {us:>9.0f}")
    print(f"{'exact':>6s}  {1.0:>9.3f}  {exact_us:>9.0f}")

    table = build_candidate_table(index, k=30)
    items, scores = table.topk(0, 5)
    assert items.tolist() == index.topk(0, 5)[0].tolist()  # the index's top-k
    print(f"\ncandidate table: {len(table)} items x top-{table.k}")
    print(f"item 0 -> {items.tolist()} (scores {np.round(scores, 3).tolist()})")


if __name__ == "__main__":
    main()
