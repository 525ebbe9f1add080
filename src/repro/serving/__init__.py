"""The online matching stage: candidate table, model store, request service.

The offline pipeline (training → similarity index → ANN index → nightly
candidate table) produces artifacts; this package turns them into a
request-serving system:

- :mod:`repro.serving.candidates` — the nightly precomputed I2I table;
- :mod:`repro.serving.store` — the one bundle builder, and the
  double-buffered store that builds its own next generation and hot-swaps
  it atomically (the daily-refresh handover);
- :mod:`repro.serving.service` — the request/response vocabulary
  (``MatchRequest``, ``MatchResult``, ``MatchingServiceConfig``, tiers);
- :mod:`repro.serving.cache` / :mod:`repro.serving.metrics` — the hot
  path's cache and per-tier latency accounting;
- :mod:`repro.serving.loadgen` — synthetic traffic replay with QPS and
  tail-latency reporting;
- :mod:`repro.serving.gateway` — the asyncio HTTP front end: request
  coalescing into micro-batches, load shedding, swap coordination, and
  the blocking ``/healthz`` / ``/metrics`` client;
- :mod:`repro.serving.sharding` — the matching service: one request
  path (table → ANN → cold item → cold user → popularity, LRU/TTL
  result cache, micro-batched scatter-gather) over one store or over
  per-HBGP-partition stores that swap independently, plus the one flip
  protocol refresh and streaming promote through;
- :mod:`repro.serving.eval` — serving-side HR@K (the evaluator routed
  through a live service instead of the exact index);
- :mod:`repro.serving.refresh` — the nightly refresh daemon: warm-start
  retraining → bundle build → hot swap on a background thread, with
  retry/backoff, a circuit breaker and a drift gate.
"""

from repro.serving.candidates import CandidateTable, build_candidate_table
from repro.serving.cache import LRUTTLCache
from repro.serving.gateway import (
    GatewayConfig,
    GatewayThread,
    RecommendGateway,
    fetch_json,
    request_from_payload,
    request_to_payload,
    wait_for_gateway,
)
from repro.serving.loadgen import (
    LoadMix,
    latency_percentiles,
    run_load,
    synth_requests,
)
from repro.serving.metrics import LatencyHistogram, ServingMetrics, to_jsonable
from repro.serving.service import (
    MatchingServiceConfig,
    MatchRequest,
    MatchResult,
    TIERS,
)
from repro.serving.store import (
    ModelBundle,
    ModelStore,
    build_bundle,
    build_shard_bundle,
    popularity_ranking,
)
from repro.serving.sharding import (
    MatchingService,
    ShardedMatchingService,
    ShardedModelStore,
    build_shard_bundles,
    merge_topk,
)
from repro.serving.eval import ServiceRecommender, evaluate_service_hitrate
from repro.serving.refresh import (
    RefreshConfig,
    RefreshDaemon,
    RefreshReport,
    bootstrap_day_source,
    failing_build_hook,
)

__all__ = [
    "CandidateTable",
    "build_candidate_table",
    "LRUTTLCache",
    "LatencyHistogram",
    "ServingMetrics",
    "to_jsonable",
    "GatewayConfig",
    "GatewayThread",
    "RecommendGateway",
    "request_from_payload",
    "request_to_payload",
    "fetch_json",
    "wait_for_gateway",
    "latency_percentiles",
    "MatchingService",
    "MatchingServiceConfig",
    "MatchRequest",
    "MatchResult",
    "TIERS",
    "ModelBundle",
    "ModelStore",
    "build_bundle",
    "popularity_ranking",
    "LoadMix",
    "run_load",
    "synth_requests",
    "ShardedMatchingService",
    "ShardedModelStore",
    "build_shard_bundle",
    "build_shard_bundles",
    "merge_topk",
    "ServiceRecommender",
    "evaluate_service_hitrate",
    "RefreshConfig",
    "RefreshDaemon",
    "RefreshReport",
    "bootstrap_day_source",
    "failing_build_hook",
]
