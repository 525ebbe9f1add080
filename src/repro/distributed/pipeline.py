"""The end-to-end production training pipeline (Section III-C).

The paper lists four preparation stages before the distributed training
run:

1. transform item sequences into SI-enhanced sequences (Eq. 4);
2. count item / SI / user-type frequencies into a dictionary;
3. partition the dictionary — items via HBGP, SI and user types to
   random workers;
4. determine the shared hot set ``Q`` (tokens above a frequency
   threshold).

:class:`TrainingPipeline` wires those stages to the engine and returns a
ready :class:`~repro.core.model.EmbeddingModel` plus the cluster
accounting, so a caller gets exactly what the production system would
publish after a nightly run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.enrichment import build_enriched_corpus
from repro.core.model import EmbeddingModel
from repro.core.sgns import SGNSConfig
from repro.data.schema import ITEM_SI_FEATURES, BehaviorDataset
from repro.distributed.cluster import ClusterStats, CostModel
from repro.distributed.engine import train_distributed
from repro.distributed.partition import build_token_partition
from repro.graph.hbgp import HBGPConfig, hbgp_partition, random_partition
from repro.utils import get_logger, require, require_positive

logger = get_logger("distributed.pipeline")

_STRATEGIES = ("hbgp", "random", "random_by_leaf")


@dataclass
class PipelineConfig:
    """Configuration of the full training pipeline."""

    n_workers: int = 4
    sgns: SGNSConfig = field(default_factory=SGNSConfig)
    use_si: bool = True
    use_user_types: bool = True
    directional: bool = True
    partition_strategy: str = "hbgp"
    hbgp_beta: float = 1.2
    hot_threshold: float = 0.001
    sync_interval: int = 5
    cost_model: CostModel = field(default_factory=CostModel)

    def validate(self) -> None:
        require_positive(self.n_workers, "n_workers")
        require(
            self.partition_strategy in _STRATEGIES,
            f"partition_strategy must be one of {_STRATEGIES}, got"
            f" {self.partition_strategy!r}",
        )
        require_positive(self.sync_interval, "sync_interval")
        self.sgns.validate()
        self.cost_model.validate()


class TrainingPipeline:
    """Stages 1-4 of Section III-C plus the distributed run."""

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()
        self.config.validate()
        self.stats: ClusterStats | None = None

    def run(self, dataset: BehaviorDataset) -> EmbeddingModel:
        """Execute the pipeline; returns the trained embedding model.

        Cluster accounting is available as ``self.stats`` afterwards.
        """
        cfg = self.config

        # Stage 1 + 2: enrichment and frequency counting.
        corpus = build_enriched_corpus(
            dataset, with_si=cfg.use_si, with_user_types=cfg.use_user_types
        )

        # Stage 3: item partitioning.
        if cfg.partition_strategy == "hbgp":
            part = hbgp_partition(
                dataset,
                HBGPConfig(n_partitions=cfg.n_workers, beta=cfg.hbgp_beta),
            )
            item_partition = part.item_partition
        elif cfg.partition_strategy == "random_by_leaf":
            part = random_partition(
                dataset, cfg.n_workers, seed=cfg.sgns.seed, by_leaf=True
            )
            item_partition = part.item_partition
        else:
            part = random_partition(dataset, cfg.n_workers, seed=cfg.sgns.seed)
            item_partition = part.item_partition
        logger.info(
            "partitioning (%s): cut fraction %.3f, imbalance %.3f",
            cfg.partition_strategy,
            part.cut_fraction,
            part.imbalance,
        )

        # Stage 4 happens inside build_token_partition (hot set Q).
        token_partition = build_token_partition(
            corpus,
            cfg.n_workers,
            item_partition=item_partition,
            hot_threshold=cfg.hot_threshold,
            seed=cfg.sgns.seed,
        )

        tokens_per_item = 1 + (len(ITEM_SI_FEATURES) if cfg.use_si else 0)
        sgns_cfg = replace(
            cfg.sgns,
            directional=cfg.directional,
            window=cfg.sgns.window * tokens_per_item,
        )
        from repro.core.sisg import kind_aware_keep

        keep = kind_aware_keep(corpus, sgns_cfg.subsample_threshold)
        result = train_distributed(
            corpus,
            sgns_cfg,
            n_workers=cfg.n_workers,
            partition=token_partition,
            cost_model=cfg.cost_model,
            sync_interval=cfg.sync_interval,
            keep_probabilities=keep,
        )
        self.stats = result.stats
        return EmbeddingModel(
            corpus.vocab,
            result.w_in,
            result.w_out,
            "directional" if cfg.directional else "cosine",
        )
