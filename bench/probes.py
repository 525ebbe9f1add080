"""Fixed in-process probes of single layers, run after a traced run's timed section.

The pipeline's spans say where a workload's wall time went; these probes
time one layer at a time on the workload's own model and requests, with
nothing else running, so a layer's cost can be compared across workloads
and commits.  Every probe calls the program's public API directly.
"""

from __future__ import annotations

import json
import multiprocessing
import statistics
from dataclasses import replace

import numpy as np

from bench import workloads
from bench.trace import now
from repro.core import AliasSampler, SGNSTrainer, build_noise_distribution
from repro.core.coldstart import cold_user_vector, infer_cold_item_vector
from repro.core.hogwild import LockHotSync, ParallelSGNSTrainer, shard_sequences
from repro.core.pairfeed import EpochPairFeed, PipelinedPairFeed
from repro.core.paramserver import HotRowParameterServer, ServerHotSync
from repro.core.sgns import scatter_update
from repro.graph import HBGPConfig, hbgp_partition
from repro.serving import (
    MatchingService,
    MatchingServiceConfig,
    ModelStore,
    ShardedMatchingService,
    ShardedModelStore,
    build_bundle,
)
from repro.serving.gateway import request_from_payload, result_to_payload

#: Sequences of the day-0 corpus the engine probes train on, one epoch each.
ENGINE_PROBE_SEQUENCES = 800

#: Rows x (1 positive + 5 negatives) of the fixed scatter batch.
SCATTER_ROWS = 4096 * 6

SYNC_ROUND_TRIPS = 200
PROBE_REQUESTS = 1024


def _median_time(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = now()
        fn()
        times.append(now() - start)
    return statistics.median(times)


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------


def kernels(trained) -> dict[str, float]:
    """Alias build, negative sampling and the scatter kernel on fixed batches."""
    rng = np.random.default_rng(0)
    counts = trained.corpus.vocab.counts
    noise = build_noise_distribution(np.asarray(counts, dtype=np.int64), trained.config.noise_alpha)
    sampler = AliasSampler(noise)
    shape = (4096, trained.config.negatives)
    draw_s = _median_time(lambda: sampler.sample(shape, rng))

    matrix = np.array(trained.model.w_out, dtype=np.float32)
    indices = rng.integers(0, len(matrix), size=SCATTER_ROWS)
    grads = rng.standard_normal((SCATTER_ROWS, matrix.shape[1])).astype(np.float32) * 1e-3
    scatter_s = _median_time(lambda: scatter_update(matrix, indices, grads, 0.025))
    return {
        "sampling.alias_build_ms": _median_time(lambda: AliasSampler(noise)) * 1e3,
        "sampling.negatives_per_s": shape[0] * shape[1] / draw_s,
        "sgns.scatter_update_us": scatter_s * 1e6,
    }


# ----------------------------------------------------------------------
# training engines
# ----------------------------------------------------------------------


def _fit(trainer, trained, sequences) -> float:
    start = now()
    trainer.fit(sequences, trained.corpus.vocab.counts, keep_probabilities=trained.keep)
    return trainer.pairs_trained / (now() - start)


def _drain(feed) -> float:
    """Pairs per second a feed delivers when nothing consumes them."""
    pairs = 0
    start = now()
    try:
        feed.start()
        for centers, _contexts in feed.epochs():
            pairs += len(centers)
    finally:
        feed.close()
    return pairs / (now() - start)


def _sync_round_trip_us(sync, delta: np.ndarray) -> float:
    sync.pull()
    start = now()
    for _ in range(SYNC_ROUND_TRIPS):
        sync.merge(delta)
    return (now() - start) / SYNC_ROUND_TRIPS * 1e6


def engines(trained) -> dict[str, float]:
    """Sequential vs 1 worker vs 2 workers (lock and server) on one probe corpus."""
    config = replace(trained.config, epochs=1)
    sequences = trained.corpus.sequences[:ENGINE_PROBE_SEQUENCES]
    vocab_size = len(trained.corpus.vocab)
    out: dict[str, float] = {}

    start = now()
    shard_sequences(sequences, 2, window=config.window)
    out["hogwild.shard_us_per_seq"] = (now() - start) / len(sequences) * 1e6

    sequential = _fit(SGNSTrainer(vocab_size, config), trained, sequences)
    one = ParallelSGNSTrainer(vocab_size, config, n_workers=1, hot_sync="lock")
    w1 = _fit(one, trained, sequences)
    two = ParallelSGNSTrainer(vocab_size, config, n_workers=2, hot_sync="lock")
    w2 = _fit(two, trained, sequences)
    server = ParallelSGNSTrainer(vocab_size, config, n_workers=2, hot_sync="server")
    out["sgns.seq.pairs_per_s"] = sequential
    out["hogwild.w1.pairs_per_s"] = w1
    out["hogwild.w2.pairs_per_s"] = w2
    out["paramserver.w2.pairs_per_s"] = _fit(server, trained, sequences)
    worker_pairs = [r.pairs for r in two.worker_reports]
    out["hogwild.w2.worker_skew"] = max(worker_pairs) / max(min(worker_pairs), 1)
    out["hogwild.w2.hot_rows"] = float(two.n_hot)
    out["hogwild.w1.feed_mode"] = 1.0 if one.feed_mode == "pipelined" else 0.0
    out["hogwild.engine_tax_w1"] = sequential / w1
    out["hogwild.scaling_eff_w2"] = w2 / (2.0 * w1)

    out["pairfeed.inline.pairs_per_s"] = _drain(
        EpochPairFeed(sequences, config, trained.keep, seed=0)
    )
    out["pairfeed.pipelined.pairs_per_s"] = _drain(
        PipelinedPairFeed(sequences, config, trained.keep, seed=0)
    )

    # A zero delta through each hot-row reconciliation path, round trip.
    counts = np.asarray(trained.corpus.vocab.counts, dtype=np.int64)
    hot_ids = np.flatnonzero(counts / max(int(counts.sum()), 1) >= 1e-3)
    w_out = np.array(trained.model.w_out, dtype=np.float32)
    delta = np.zeros((len(hot_ids), w_out.shape[1]), dtype=np.float32)
    ctx = multiprocessing.get_context("fork")
    out["hogwild.lock_sync_us"] = _sync_round_trip_us(
        LockHotSync(w_out, hot_ids, ctx.Lock()), delta
    )
    param_server = HotRowParameterServer(w_out, hot_ids, 1, ctx)
    param_server.start()
    sync = ServerHotSync(param_server.connection(0))
    try:
        out["paramserver.sync_us"] = _sync_round_trip_us(sync, delta)
    finally:
        sync.close()
        param_server.join()
    return out


# ----------------------------------------------------------------------
# retrieval, cold start, sharding, codec
# ----------------------------------------------------------------------


def _probe_requests(inputs) -> list[dict]:
    """The first (latency-gated) step's own requests, as payload dicts."""
    step = inputs.steps[0]
    payloads: list[dict] = []
    bodies = step.bodies if step.loop == "open" else [b for mine in step.bodies for b in mine]
    for body in bodies:
        doc = json.loads(body)
        payloads.extend(doc["requests"] if "requests" in doc else [doc])
        if len(payloads) >= PROBE_REQUESTS:
            break
    return payloads[:PROBE_REQUESTS]


def _per_query_us(fn, batches: list) -> float:
    start = now()
    for batch in batches:
        fn(batch)
    return (now() - start) / max(sum(len(b) for b in batches), 1) * 1e6


def _chunks(items: list, size: int = workloads.BATCH_QUERIES) -> list:
    return [items[i : i + size] for i in range(0, len(items), size)] or [[]]


def retrieval(spec, trained, inputs) -> dict[str, float]:
    """Each retrieval tier, cold-start recipe and service core on the same requests."""
    out: dict[str, float] = {}
    model, dataset = trained.model, inputs.day0
    payloads = _probe_requests(inputs)
    requests = [request_from_payload(p) for p in payloads]
    bundle = build_bundle(model, dataset, table_coverage=spec.table_coverage)
    k = workloads.K

    warm = [r.item_id for r in requests if r.item_id is not None and r.item_id in bundle.index]
    in_table = [i for i in warm if i in bundle.table] or warm
    warm_batches = [np.asarray(c, dtype=np.int64) for c in _chunks(warm)]
    out["ann.topk_batch_us_per_query"] = _per_query_us(
        lambda ids: bundle.ann.topk_batch(ids, k), warm_batches
    )
    out["similarity.topk_batch_us_per_query"] = _per_query_us(
        lambda ids: bundle.index.topk_batch(ids, k), warm_batches
    )
    out["candidates.topk_batch_us_per_query"] = _per_query_us(
        lambda ids: bundle.table.topk_batch(ids, k),
        [np.asarray(c, dtype=np.int64) for c in _chunks(in_table)],
    )

    cold_items = [r for r in requests if r.item_id is None and r.si_values]
    cold_users = [r for r in requests if r.item_id is None and r.has_demographics]
    out["coldstart.cold_item_us"] = _per_query_us(
        lambda batch: [
            bundle.ann.topk_by_vector(infer_cold_item_vector(model, r.si_values), k)
            for r in batch
        ],
        [cold_items],
    )
    out["coldstart.cold_user_us"] = _per_query_us(
        lambda batch: [
            bundle.ann.topk_by_vector(
                cold_user_vector(model, r.gender, r.age_bucket, r.purchase_power), k
            )
            for r in batch
        ],
        [cold_users],
    )

    # The two service cores on identical request lists, caches off.
    no_cache = MatchingServiceConfig(cache_size=0)
    batches = _chunks(requests)
    unsharded = MatchingService(ModelStore(bundle), no_cache)
    out["service.recommend_batch_us_per_query"] = _per_query_us(
        lambda batch: unsharded.recommend_batch(batch, k), batches
    )
    start = now()
    partition = hbgp_partition(dataset, HBGPConfig(n_partitions=2))
    out["hbgp.partition_s"] = now() - start
    start = now()
    store = ShardedModelStore.build(
        model, dataset, partition, table_coverage=spec.table_coverage
    )
    out["sharding.build_s"] = now() - start
    sharded = ShardedMatchingService(store, no_cache)
    try:
        out["sharding.recommend_batch_us_per_query"] = _per_query_us(
            lambda batch: sharded.recommend_batch(batch, k), batches
        )
    finally:
        sharded.close()
    out["sharding.tax"] = (
        out["sharding.recommend_batch_us_per_query"]
        / out["service.recommend_batch_us_per_query"]
    )

    # Wire codec: parse a body, build the request, render and encode the answer.
    results = unsharded.recommend_batch(requests, k)
    bodies = [json.dumps(p).encode() for p in payloads]
    start = now()
    for body, result in zip(bodies, results):
        request_from_payload(json.loads(body))
        json.dumps(result_to_payload(result)).encode()
    out["gateway.codec_us"] = (now() - start) / len(bodies) * 1e6
    return out
