"""The stack serves what was trained.

The model records its similarity, every artifact built over it scores
that way, and a candidate-table row is the index's exact top-``k``: the
table tier answers byte for byte what ``SimilarityIndex(model).topk``
answers, one shard or three, one request or a 32-query batch, on a
trained model of either similarity and on a tie-heavy catalogue.  A
request deeper than the table skips it instead of coming back short.
"""

import numpy as np
import pytest

from repro.core.model import EmbeddingModel
from repro.core.similarity import SimilarityIndex
from repro.core.sisg import SISG
from repro.eval.hitrate import evaluate_hitrate
from repro.graph.hbgp import HBGPConfig, PartitionResult, hbgp_partition
from repro.serving import (
    MatchingService,
    MatchingServiceConfig,
    ModelStore,
    ShardedModelStore,
    build_bundle,
)
from repro.serving.eval import evaluate_service_hitrate
from repro.serving.store import _TABLE_DEPTH as DEPTH

from .test_candidates import tie_world

NO_CACHE = MatchingServiceConfig(cache_size=0)
SHARDS = [1, 3]


@pytest.fixture(scope="module")
def sisg_f_u(tiny_split):
    train, _ = tiny_split
    return SISG.sisg_f_u(dim=12, epochs=1, window=2, negatives=4, seed=11).fit(train)


@pytest.fixture(scope="module")
def worlds(fitted_sisg, sisg_f_u, tiny_split):
    """``{name: (model, dataset, partition)}``: trained models of both
    similarities with an HBGP partition, and the tie-heavy catalogue in
    both similarities with a round-robin one."""
    train, _ = tiny_split
    hbgp = hbgp_partition(train, HBGPConfig(n_partitions=3))
    ties, tie_data = tie_world()
    round_robin = PartitionResult(
        item_partition=np.arange(tie_data.n_items) % 3,
        leaf_partition=np.zeros(1, dtype=np.int64),
        partition_frequency=np.ones(3),
        cut_weight=0.0,
        total_weight=0.0,
    )
    return {
        "SISG-F-U-D": (fitted_sisg.model, train, hbgp),
        "SISG-F-U": (sisg_f_u.model, train, hbgp),
        "ties-cosine": (ties, tie_data, round_robin),
        "ties-directional": (
            EmbeddingModel(ties.vocab, ties.w_in, ties.w_out, "directional"),
            tie_data,
            round_robin,
        ),
    }


def default_service(model, dataset, partition, shards, **kwargs) -> MatchingService:
    if shards == 1:
        store = ModelStore(build_bundle(model, dataset, **kwargs))
    else:
        store = ShardedModelStore.build(model, dataset, partition, **kwargs)
    return MatchingService(store, NO_CACHE)


class TestTableTierIsTheIndexTopk:
    @pytest.mark.parametrize("shards", SHARDS)
    @pytest.mark.parametrize(
        "world", ["SISG-F-U-D", "SISG-F-U", "ties-cosine", "ties-directional"]
    )
    def test_singles_and_batches(self, worlds, world, shards):
        model, dataset, partition = worlds[world]
        service = default_service(model, dataset, partition, shards)
        index = SimilarityIndex(model)
        assert index.mode == model.similarity
        items = [int(i) for i in index.item_ids]
        for k in (1, 10, 50):
            want = [index.topk(item, k) for item in items]
            singles = [service.recommend(item, k) for item in items]
            batches = [
                result
                for start in range(0, len(items), 32)
                for result in service.recommend_batch(items[start : start + 32], k)
            ]
            for (want_ids, want_scores), single, batched in zip(want, singles, batches):
                for result in (single, batched):
                    assert result.tier == "table"
                    assert result.items.tobytes() == want_ids.tobytes()
                    assert np.array_equal(result.scores, want_scores)


class TestDeepRequests:
    @pytest.mark.parametrize("shards", SHARDS)
    def test_deeper_than_the_table_skips_it(self, worlds, shards):
        """A covered item at ``k`` past the table's depth gets ``k``
        items from the (here exhaustive) ANN tier, not a short row."""
        model, dataset, partition = worlds["SISG-F-U-D"]
        service = default_service(model, dataset, partition, shards, n_cells=1)
        item = int(SimilarityIndex(model).item_ids[0])
        assert service.recommend(item, DEPTH).tier == "table"
        want = SimilarityIndex(model).topk(item, DEPTH + 10)[0]
        for result in (
            service.recommend(item, DEPTH + 10),
            service.recommend_batch([item], DEPTH + 10)[0],
        ):
            assert result.tier == "ann"
            assert result.items.tolist() == want.tolist()


def test_served_hitrate_is_offline_hitrate(fitted_sisg, tiny_split):
    """Served HR@K over the default build equals the exact index's."""
    train, test = tiny_split
    service = MatchingService(ModelStore(build_bundle(fitted_sisg.model, train)), NO_CACHE)
    ks = (1, 10, 20)
    served = evaluate_service_hitrate(service, test, ks=ks)
    offline = evaluate_hitrate(fitted_sisg.index, test, ks=ks)
    assert served.hit_rates == offline.hit_rates
