"""The production training pipeline on the simulated cluster (Section III).

Runs the four preparation stages (enrichment, counting, HBGP
partitioning, hot-set selection) and the TNS/ATNS training loop on a
simulated multi-worker cluster, then reports the cluster accounting —
the numbers behind Fig. 7 of the paper.

    python examples/distributed_training.py
"""

from repro import SyntheticWorld, SyntheticWorldConfig
from repro.core.sgns import SGNSConfig
from repro.core.similarity import SimilarityIndex
from repro.distributed.pipeline import PipelineConfig, TrainingPipeline
from repro.utils.logger import configure_basic_logging


def main() -> None:
    configure_basic_logging()

    world = SyntheticWorld(
        SyntheticWorldConfig(
            n_items=1000, n_users=300, n_top_categories=6, n_leaf_categories=24
        ),
        seed=5,
    )
    dataset = world.generate_dataset(n_sessions=2500)

    for strategy in ("hbgp", "random"):
        pipeline = TrainingPipeline(
            PipelineConfig(
                n_workers=8,
                partition_strategy=strategy,
                use_si=True,
                use_user_types=True,
                directional=False,
                sgns=SGNSConfig(dim=16, epochs=1, window=2, negatives=5, seed=2),
            )
        )
        model = pipeline.run(dataset)
        stats = pipeline.stats
        print(f"\n--- partition strategy: {strategy} ---")
        print(f"simulated wall clock : {stats.simulated_seconds:.3f} s")
        print(f"remote pair fraction : {stats.remote_fraction:.3f}")
        print(f"floats transferred   : {stats.floats_transferred:,}")
        print(f"compute imbalance    : {stats.compute_imbalance:.2f}")
        print(f"hot-set sync rounds  : {stats.sync_rounds}")

        index = SimilarityIndex(model)
        items, _ = index.topk(0, k=5)
        print(f"sanity retrieval for item 0: {items.tolist()}")


if __name__ == "__main__":
    main()
