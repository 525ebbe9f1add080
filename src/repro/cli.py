"""Command-line interface: ``sisg <command>``.

Commands mirror the production workflow:

- ``sisg generate`` — sample a synthetic world and save it to disk;
- ``sisg stats`` — print the Table-II statistics of a saved dataset;
- ``sisg train`` — train a SISG variant (local, Hogwild ``parallel``,
  parameter-server ``tns``, or simulated-distributed engine) and save
  the embedding model;
- ``sisg evaluate`` — HR@K next-item evaluation of a saved model;
- ``sisg recommend`` — top-K lookup for one item from a saved model;
- ``sisg partition`` — run HBGP and report cut fraction / imbalance;
- ``sisg serve-demo`` — stand up the online matching service and walk
  every fallback tier, including a hot swap (``--refresh-every`` runs
  the swap through the background refresh daemon instead);
- ``sisg loadgen`` — replay synthetic traffic against the service and
  report QPS / cache hit rate / per-tier tail latency as JSON;
- ``sisg refresh-daemon`` — run nightly refresh cycles (warm-start →
  build → swap) against a live service, with retry/backoff, a circuit
  breaker, a drift gate and optional fault injection;
- ``sisg serve`` — stand the network gateway up on a real socket:
  HTTP ``/recommend`` with request coalescing, load shedding, and
  (``--refresh-every``) swap-coordinated nightly refreshes;
- ``sisg stream`` — streaming ingest demo: stand a gateway up, feed a
  synthetic click stream with brand-new listings through the
  micro-batch applier (windows promoted under the swap gate), fire
  traffic mid-stream, and report whether the new items became
  servable, staleness, and apply latency as JSON.

``serve-demo``, ``loadgen``, ``refresh-daemon``, ``serve`` and ``stream``
stand the serving stack up from one set of flags; ``--shards N`` serves
from HBGP-sharded per-partition stores behind the scatter-gather
dispatcher (``--shard-executor process``: one worker process per shard).

Datasets are stored as ``.npz`` bundles via :mod:`repro.data.io_utils`.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections import namedtuple

from repro.utils.logger import configure_basic_logging


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="sample a synthetic dataset")
    p.add_argument("output", help="output path (dataset .npz bundle)")
    p.add_argument("--items", type=int, default=2000)
    p.add_argument("--users", type=int, default=500)
    p.add_argument("--leaves", type=int, default=24)
    p.add_argument("--tops", type=int, default=6)
    p.add_argument("--sessions", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)


def _add_stats(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("stats", help="Table-II statistics of a dataset")
    p.add_argument("dataset", help="dataset .npz bundle")
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=20)


def _workers_arg(value: str) -> "int | str":
    """argparse type for ``--workers``: a positive int or ``auto``."""
    if value == "auto":
        return "auto"
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        )
    if n < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {n}")
    return n


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="train a SISG variant")
    p.add_argument("dataset", help="dataset .npz bundle")
    p.add_argument("output", help="model output path prefix")
    p.add_argument(
        "--variant",
        default="SISG-F-U-D",
        choices=["SGNS", "SISG-F", "SISG-U", "SISG-F-U", "SISG-F-U-D"],
    )
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument(
        "--engine",
        default="local",
        choices=["local", "parallel", "tns", "distributed"],
        help="local single-process trainer, the shared-memory Hogwild"
        " engine (parallel), the same engine with hot-row replicas synced"
        " through a parameter-server process (tns), or the simulated"
        " TNS/ATNS engine",
    )
    p.add_argument(
        "--workers",
        type=_workers_arg,
        default=4,
        help="worker processes for parallel/tns/distributed engines,"
        " or 'auto' (cpu count capped by shard count)",
    )
    p.add_argument("--seed", type=int, default=0)


def _add_evaluate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("evaluate", help="HR@K next-item evaluation")
    p.add_argument("dataset", help="dataset .npz bundle (full sessions)")
    p.add_argument("model", help="model path prefix (from `sisg train`)")
    p.add_argument("--ks", type=int, nargs="+", default=[1, 10, 20, 100, 200])


def _add_recommend(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("recommend", help="top-K lookup for one item")
    p.add_argument("model", help="model path prefix")
    p.add_argument("item", type=int)
    p.add_argument("-k", type=int, default=10)


def _add_partition(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("partition", help="run HBGP over a dataset")
    p.add_argument("dataset", help="dataset .npz bundle")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--beta", type=float, default=1.2)


def _stack_parent() -> argparse.ArgumentParser:
    """The flags of every command that stands the serving stack up
    (``serve-demo``, ``loadgen``, ``refresh-daemon``, ``serve``,
    ``stream``), declared once; :func:`_build_service` reads them."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("dataset", help="dataset .npz bundle")
    p.add_argument("model", help="model path prefix (from `sisg train`)")
    p.add_argument(
        "--table-coverage",
        type=float,
        default=0.8,
        help="fraction of items in the nightly table (rest hit live ANN)",
    )
    p.add_argument("--cells", type=int, default=None, help="IVF cells")
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help="serve from this many HBGP shards behind the scatter-gather"
        " dispatcher (0/1 = one unpartitioned store)",
    )
    p.add_argument(
        "--shard-executor",
        default="serial",
        choices=["serial", "process"],
        help="gather execution: in-process, or one worker process per shard",
    )
    p.add_argument(
        "--ann-precision",
        default="float32",
        choices=["float32", "int8", "pq"],
        help="retrieval-tier storage: full float32, int8 scalar"
        " quantization, or product quantization (both quantized modes"
        " re-rank the top rerank*k candidates exactly)",
    )
    p.add_argument(
        "--ann-rerank",
        type=int,
        default=4,
        help="exact re-rank depth multiplier for quantized precisions",
    )
    p.add_argument(
        "--zero-copy",
        action="store_true",
        help="back bundle arrays with shared-memory segments so worker"
        " processes and hot-swap generations share one physical copy",
    )
    return p


def _background_parent() -> argparse.ArgumentParser:
    """The flags that attach the refresh daemon and the stream applier to
    a running stack (``serve-demo`` after its walk, ``serve`` through the
    gateway's swap gate)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--refresh-every",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run the nightly refresh daemon on a background thread at"
        " this interval (serve-demo: in place of the manual hot swap)",
    )
    p.add_argument(
        "--stream-every",
        type=float,
        default=None,
        metavar="SECONDS",
        help="poll a synthetic click stream (brand-new listings included)"
        " and apply micro-batch windows at this interval",
    )
    return p


def _add_serve_demo(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve-demo",
        parents=[_stack_parent(), _background_parent()],
        help="walk the matching service's fallback chain",
    )
    p.add_argument("-k", type=int, default=10)


def _add_refresh_daemon(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "refresh-daemon",
        parents=[_stack_parent()],
        help="run nightly refresh cycles against a live service",
    )
    p.add_argument(
        "--cycles", type=int, default=2, help="refresh cycles to run"
    )
    p.add_argument(
        "--interval",
        type=float,
        default=0.0,
        help="seconds between cycle starts; 0 runs the cycles"
        " back-to-back in the foreground (default)",
    )
    p.add_argument("--max-retries", type=int, default=2)
    p.add_argument(
        "--drift-threshold",
        type=float,
        default=None,
        help="abort promotion when day-over-day embedding drift"
        " exceeds this (default: gate disabled)",
    )
    p.add_argument("--lr-decay", type=float, default=0.5)
    p.add_argument(
        "--train-epochs",
        type=int,
        default=1,
        help="warm-start continuation epochs per cycle",
    )
    p.add_argument(
        "--inject-failures",
        type=int,
        default=0,
        metavar="N",
        help="inject N build failures to exercise retry/backoff",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--output", default=None, help="also write the JSON status here"
    )


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        parents=[_stack_parent(), _background_parent()],
        help="run the network gateway over a live matching service",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8460)
    p.add_argument(
        "--max-batch", type=int, default=32, help="coalescing batch cap"
    )
    p.add_argument(
        "--high-water",
        type=int,
        default=512,
        help="shed (429) while this many requests are queued",
    )
    p.add_argument(
        "--latency-budget-ms",
        type=float,
        default=250.0,
        help="shed queued requests older than this at dispatch (0 disables)",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="stop after this many seconds (0 = serve until interrupted)",
    )
    p.add_argument("--seed", type=int, default=0)


def _add_loadgen(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "loadgen",
        parents=[_stack_parent()],
        help="synthetic load against the matching service",
    )
    p.add_argument("--requests", type=int, default=2000)
    p.add_argument("-k", type=int, default=10)
    p.add_argument(
        "--mix",
        default="0.7,0.1,0.1,0.1",
        help="warm,cold_item,cold_user,unknown[,cold_wave] weights"
        " (renormalized; the 5th adds a cold-start wave burst)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="also write the JSON report here")
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument(
        "--swap-mid",
        action="store_true",
        help="hot-swap a rebuilt bundle halfway through the run",
    )


def _add_stream(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "stream",
        parents=[_stack_parent()],
        help="streaming ingest smoke: apply live windows under a gateway"
        " (exits 1 unless every window landed with zero request errors)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p.add_argument("--windows", type=int, default=2, help="windows to apply")
    p.add_argument(
        "--new-items-per-window",
        type=int,
        default=2,
        help="brand-new listings injected per window",
    )
    p.add_argument(
        "--events-per-window", type=int, default=64, help="clicks per window"
    )
    p.add_argument(
        "--requests-per-window",
        type=int,
        default=32,
        help="gateway requests fired while each window applies",
    )
    p.add_argument(
        "--drift-threshold",
        type=float,
        default=None,
        help="quarantine a window whose embedding drift exceeds this",
    )
    p.add_argument("-k", type=int, default=10)
    p.add_argument(
        "--train-epochs",
        type=int,
        default=1,
        help="continuation epochs per window",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--output", default=None, help="also write the JSON report here"
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``sisg`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="sisg",
        description="SISG reproduction toolkit (ICDE 2020).",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for add_arguments, _run in _COMMANDS.values():
        add_arguments(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_basic_logging(logging.DEBUG if args.verbose else logging.INFO)
    _add_arguments, run = _COMMANDS[args.command]
    return run(args)


# ----------------------------------------------------------------------
# command implementations (imports deferred so --help stays instant)
# ----------------------------------------------------------------------


def _emit_json(doc: dict, output: "str | None" = None) -> None:
    """Print ``doc`` as JSON; also write it to ``output`` when given."""
    import json
    from pathlib import Path

    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if output:
        Path(output).write_text(text + "\n")


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data.io_utils import save_dataset
    from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig

    config = SyntheticWorldConfig(
        n_items=args.items,
        n_users=args.users,
        n_leaf_categories=args.leaves,
        n_top_categories=args.tops,
    )
    world = SyntheticWorld(config, seed=args.seed)
    dataset = world.generate_dataset(n_sessions=args.sessions)
    save_dataset(dataset, args.output)
    print(
        f"wrote {dataset.n_items} items, {dataset.n_users} users,"
        f" {dataset.n_sessions} sessions -> {args.output}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.data.io_utils import load_dataset
    from repro.data.stats import compute_corpus_stats

    dataset = load_dataset(args.dataset)
    stats = compute_corpus_stats(
        dataset, window=args.window, negatives=args.negatives
    )
    for label, value in stats.as_row().items():
        print(f"{label:18s} {value:,}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core.sisg import SISG
    from repro.data.io_utils import load_dataset

    dataset = load_dataset(args.dataset)
    model = SISG.variant(
        args.variant,
        dim=args.dim,
        epochs=args.epochs,
        window=args.window,
        negatives=args.negatives,
        learning_rate=args.lr,
        seed=args.seed,
        engine=args.engine,
        n_workers=args.workers,
    )
    model.fit(dataset)
    model.model.save(args.output)
    print(f"trained {args.variant} -> {args.output}.npz / .vocab.json")
    return 0


def _load_index(args: argparse.Namespace):
    """The exact similarity index over the saved model at ``args.model``,
    scoring with the similarity the model was trained for."""
    from repro.core.model import EmbeddingModel
    from repro.core.similarity import SimilarityIndex

    return SimilarityIndex(EmbeddingModel.load(args.model))


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.data.io_utils import load_dataset
    from repro.eval.hitrate import evaluate_hitrate

    dataset = load_dataset(args.dataset)
    _train, test = dataset.split_last_item()
    index = _load_index(args)
    result = evaluate_hitrate(index, test, ks=tuple(args.ks), name=args.model)
    for k in sorted(result.hit_rates):
        print(f"HR@{k:<4d} {result.hit_rates[k]:.4f}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    items, scores = _load_index(args).topk(args.item, args.k)
    for item, score in zip(items, scores):
        print(f"item_{int(item):<10d} {score:+.4f}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.data.io_utils import load_dataset
    from repro.graph.hbgp import HBGPConfig, hbgp_partition, random_partition

    dataset = load_dataset(args.dataset)
    hbgp = hbgp_partition(
        dataset, HBGPConfig(n_partitions=args.workers, beta=args.beta)
    )
    rand = random_partition(dataset, args.workers)
    print(f"{'strategy':10s} {'cut_fraction':>12s} {'imbalance':>10s}")
    print(f"{'hbgp':10s} {hbgp.cut_fraction:12.4f} {hbgp.imbalance:10.4f}")
    print(f"{'random':10s} {rand.cut_fraction:12.4f} {rand.imbalance:10.4f}")
    return 0


#: What the stack flags stand up (:func:`_build_service`): the parsed
#: flags, the dataset, the embedding model and the live matching service.
_Stack = namedtuple("_Stack", "args dataset model service")


def _bundle_kwargs(args: argparse.Namespace, seed: int) -> dict:
    """The bundle-build kwargs of the stack flags, for one generation."""
    return {
        "n_cells": args.cells,
        "table_coverage": args.table_coverage,
        "seed": seed,
        "ann_precision": args.ann_precision,
        "ann_rerank": args.ann_rerank,
        "share_memory": args.zero_copy,
    }


def _build_service(args: argparse.Namespace) -> _Stack:
    """The stack flags -> dataset, model and the live service.

    One service class either way: ``--shards N`` (N >= 2) partitions the
    item space with HBGP and hands it per-shard stores, otherwise it
    gets a single ``ModelStore`` (the one-shard case);
    ``--shard-executor process`` adds one worker process per shard.
    """
    from repro.core.model import EmbeddingModel
    from repro.data.io_utils import load_dataset
    from repro.serving import MatchingService, ModelStore, build_bundle

    dataset = load_dataset(args.dataset)
    model = EmbeddingModel.load(args.model)
    build_kwargs = _bundle_kwargs(args, seed=0)
    pool = None
    if args.shards >= 2:
        from repro.graph.hbgp import HBGPConfig, hbgp_partition
        from repro.serving import ShardedModelStore, ShardWorkerPool

        partition = hbgp_partition(dataset, HBGPConfig(n_partitions=args.shards))
        store = ShardedModelStore.build(model, dataset, partition, **build_kwargs)
        if args.shard_executor == "process":
            pool = ShardWorkerPool(store)
    else:
        store = ModelStore(build_bundle(model, dataset, **build_kwargs))
    return _Stack(args, dataset, model, MatchingService(store, pool=pool))


def _hot_swap(stack: _Stack, seed: int) -> None:
    """Rebuild shard 0 — the whole catalogue when there is one shard —
    and promote it with its catalogue; any other shard keeps serving
    untouched."""
    from repro.serving.sharding import promote

    bundles, _ = stack.service.store.build_generation(
        stack.model, stack.dataset, shards=[0], **_bundle_kwargs(stack.args, seed)
    )
    promote(stack.service, bundles, catalogue=stack.dataset)


def _next_generation(
    stack: _Stack, seed: int, build_seed: "int | None", epochs: int
) -> dict:
    """The warm-start ``train_config`` and the ``build_kwargs`` that the
    refresh and the stream config both take."""
    from repro.core.sgns import SGNSConfig

    if build_seed is None:
        build_seed = seed
    return {
        "train_config": SGNSConfig(
            dim=stack.model.dim, epochs=epochs, window=2, negatives=2, seed=seed
        ),
        "build_kwargs": _bundle_kwargs(stack.args, build_seed),
    }


def _refresh_daemon(
    stack: _Stack,
    interval: float,
    seed: int,
    build_seed: "int | None" = None,
    epochs: int = 1,
    promote_gate=None,
    fault_hook=None,
    **cycle_knobs,
):
    """A refresh daemon over the stack, fed bootstrap-resampled days."""
    from repro.serving import RefreshConfig, RefreshDaemon, bootstrap_day_source

    config = RefreshConfig(
        interval=interval,
        **_next_generation(stack, seed, build_seed, epochs),
        **cycle_knobs,
    )
    return RefreshDaemon(
        stack.service,
        bootstrap_day_source(stack.dataset, seed=seed),
        config,
        fault_hook=fault_hook,
        promote_gate=promote_gate,
        seed=seed,
    )


def _stream_applier(
    stack: _Stack,
    seed: int,
    build_seed: "int | None" = None,
    epochs: int = 1,
    promote_gate=None,
    log=None,
    **window_knobs,
):
    """A stream applier over the stack (on a fresh event log by default)."""
    from repro.streaming import EventLog, StreamApplier, StreamConfig

    config = StreamConfig(
        **_next_generation(stack, seed, build_seed, epochs), **window_knobs
    )
    return StreamApplier(
        stack.service,
        EventLog() if log is None else log,
        stack.dataset,
        config,
        promote_gate=promote_gate,
        seed=seed,
    )


def _cmd_serve_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serving import MatchRequest

    stack = _build_service(args)
    dataset, service = stack.dataset, stack.service
    bundles = service.store.snapshot()
    covered = np.concatenate([b.table.item_ids for b in bundles])
    uncovered = [
        int(i) for b in bundles for i in b.index.item_ids if int(i) not in b.table
    ]

    def show(label: str, request) -> None:
        result = service.recommend(request, args.k)
        print(
            f"{label:28s} tier={result.tier:<10s} v{result.version}"
            f" {result.latency * 1e6:7.0f}us ->"
            f" {result.items[:5].tolist()}"
        )

    print("— fallback chain —")
    show("warm item (in table)", int(covered[0]))
    if uncovered:
        show("warm item (table miss)", uncovered[0])
    show(
        "cold item (SI only)",
        MatchRequest(si_values=dict(dataset.items[0].si_values)),
    )
    show("cold user (demographics)", MatchRequest(gender="F", age_bucket="25-30"))
    show("unknown item", MatchRequest(item_id=10**9))

    if args.refresh_every is not None:
        # Daemon-driven refresh: warm-start retrain + rebuild + promote
        # on a background thread while the service keeps serving.
        print(f"— refresh daemon (every {args.refresh_every:g}s) —")
        daemon = _refresh_daemon(stack, args.refresh_every, seed=0, build_seed=1)
        with daemon:
            if not daemon.wait_for_cycles(1, timeout=300.0):
                print("refresh cycle timed out", file=sys.stderr)
                return 1
        report = daemon.history[-1]
        print(
            f"cycle {report.cycle}: promoted={report.promoted}"
            f" attempts={report.attempts} versions={report.versions}"
        )
        show("warm item after refresh", int(covered[0]))
    else:
        print("— hot swap —")
        _hot_swap(stack, seed=1)
        print(f"rebuilt shard 0 only; store version: {service.store.version}")
        show("warm item after swap", int(covered[0]))
    if args.stream_every is not None:
        from repro.streaming import SyntheticEventStream

        print(f"— streaming ingest (every {args.stream_every:g}s) —")
        stream = SyntheticEventStream(dataset, seed=0)
        applier = _stream_applier(stack, seed=0, build_seed=2)
        with applier.start(args.stream_every, event_source=stream):
            if not applier.wait_for_windows(2, timeout=300.0):
                print("stream windows timed out", file=sys.stderr)
                return 1
        for report in applier.history:
            drift = "n/a" if report.drift is None else f"{report.drift:.4f}"
            print(
                f"window [{report.start}, {report.end}):"
                f" applied={report.applied} new_items={report.new_items}"
                f" drift={drift} versions={report.versions}"
            )
        show("new listing (streamed)", stream.new_item_ids[0])
    print("— metrics —")
    _emit_json(service.snapshot())
    service.close()
    return 0


def _cmd_refresh_daemon(args: argparse.Namespace) -> int:
    """Run ``--cycles`` refresh cycles and print the daemon's status.

    Exits 1 when no cycle promoted — the old generation is still
    serving (that is the point of failure isolation), but a refresh job
    that never lands a new generation should page someone.
    """
    from repro.serving import failing_build_hook

    stack = _build_service(args)
    service = stack.service
    daemon = _refresh_daemon(
        stack,
        args.interval if args.interval > 0 else 86400.0,
        seed=args.seed,
        epochs=args.train_epochs,
        fault_hook=(
            failing_build_hook({"build": args.inject_failures})
            if args.inject_failures > 0
            else None
        ),
        max_retries=args.max_retries,
        backoff_base=0.05,
        backoff_cap=1.0,
        drift_threshold=args.drift_threshold,
        lr_decay=args.lr_decay,
    )
    try:
        if args.interval > 0:
            with daemon:
                if not daemon.wait_for_cycles(args.cycles, timeout=600.0):
                    print("refresh cycles timed out", file=sys.stderr)
                    return 1
        else:
            for _ in range(args.cycles):
                daemon.run_once()
    finally:
        service.close()
    status = daemon.status()
    status["metrics"] = service.snapshot()
    _emit_json(status, args.output)
    promotions = sum(1 for r in status["history"] if r["promoted"])
    return 0 if promotions > 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Stand the gateway up on a socket; serve until --duration or ^C."""
    import time

    from repro.serving import GatewayConfig, GatewayThread

    stack = _build_service(args)
    service = stack.service
    config = GatewayConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        queue_high_water=args.high_water,
        latency_budget_ms=(
            args.latency_budget_ms if args.latency_budget_ms > 0 else None
        ),
        default_k=10,
    )
    gateway = GatewayThread(service, config)
    daemon = None
    applier = None
    try:
        gateway.start()
        print(
            f"gateway listening on http://{args.host}:{gateway.port}"
            f" (coalescing <= {args.max_batch} reqs per free slot,"
            f" shed past {args.high_water} queued)",
            flush=True,
        )
        if args.refresh_every is not None:
            daemon = _refresh_daemon(
                stack, args.refresh_every, seed=args.seed, promote_gate=gateway.swap_gate
            )
            daemon.start()
            print(
                f"refresh daemon attached (every {args.refresh_every:g}s,"
                " promotions through the swap gate)",
                flush=True,
            )
        if args.stream_every is not None:
            from repro.streaming import SyntheticEventStream

            applier = _stream_applier(
                stack, seed=args.seed, promote_gate=gateway.swap_gate
            )
            applier.start(
                args.stream_every,
                event_source=SyntheticEventStream(stack.dataset, seed=args.seed),
            )
            print(
                f"stream applier attached (every {args.stream_every:g}s,"
                " promotions through the swap gate)",
                flush=True,
            )
        deadline = time.monotonic() + args.duration if args.duration > 0 else None
        try:
            while deadline is None or time.monotonic() < deadline:
                time.sleep(0.2)
        except KeyboardInterrupt:
            print("interrupted; shutting down", file=sys.stderr)
    finally:
        if applier is not None:
            applier.stop()
        if daemon is not None:
            daemon.stop()
        gateway.stop()
        service.close()
    _emit_json(gateway.gateway.metrics_snapshot())
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serving import LoadMix, run_load, synth_requests

    weights = [float(part) for part in args.mix.split(",")]
    if len(weights) not in (4, 5):
        print("--mix needs 4 or 5 comma-separated weights", file=sys.stderr)
        return 2
    mix = LoadMix(*weights)
    stack = _build_service(args)
    service = stack.service
    requests = synth_requests(stack.dataset, args.requests, mix=mix, seed=args.seed)

    swap = None
    if args.swap_mid:

        def swap() -> None:
            _hot_swap(stack, seed=args.seed + 1)

    try:
        report = run_load(
            service, requests, k=args.k, batch_size=args.batch_size, swap=swap
        )
    finally:
        service.close()
    _emit_json(report, args.output)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Streaming ingest smoke against a live gateway.

    Pre-loads ``--windows`` micro-batch windows of synthetic clicks
    (each announcing brand-new listings) into the event log, applies
    them on the applier's background thread — promotions through the
    gateway's writer-priority swap gate — while the foreground fires
    ``/recommend`` traffic over the wire.  Exits 0 only when every
    window applied, no request errored, and every new listing is
    servable from a non-popularity tier.
    """
    import time

    from repro.serving import GatewayConfig, GatewayThread
    from repro.serving.loadgen import latency_percentiles
    from repro.serving.gateway import fetch_json, wait_for_gateway
    from repro.streaming import EventLog, SyntheticEventStream

    stack = _build_service(args)
    dataset, service = stack.dataset, stack.service
    store = service.store
    metrics = service.metrics
    stream = SyntheticEventStream(
        dataset,
        new_items_per_window=args.new_items_per_window,
        events_per_window=args.events_per_window,
        seed=args.seed,
    )
    log = EventLog()
    gateway = GatewayThread(
        service, GatewayConfig(host=args.host, port=args.port, default_k=args.k)
    )
    applier = _stream_applier(
        stack,
        seed=args.seed,
        epochs=args.train_epochs,
        promote_gate=gateway.swap_gate,
        log=log,
        # The whole stream is pre-loaded into the log, so the window cap
        # is what splits it back into `--windows` micro-batches.
        window_events=args.events_per_window,
        drift_threshold=args.drift_threshold,
        # Hot-item re-routing; a no-op on a store of one shard.
        rebalance_ratio=4.0,
    )

    errors = 0
    served = 0
    timed_out = False
    tiers: dict[str, str] = {}

    def fire(item_id: int) -> str:
        """One ``/recommend`` over the wire; the serving tier, or ``error``."""
        nonlocal errors, served
        try:
            payload = fetch_json(
                args.host,
                gateway.port,
                f"/recommend?item_id={item_id}&k={args.k}",
            )
        except Exception:
            errors += 1
            return "error"
        served += 1
        return str(payload["tier"])

    try:
        gateway.start()
        wait_for_gateway(args.host, gateway.port)
        for _ in range(args.windows):
            log.extend(stream.window())
        new_ids = stream.new_item_ids
        time.sleep(0.05)
        staleness_before = metrics.gauge("stream_staleness_s")
        applier.start(0.05)
        # Mid-stream traffic: hammer warm + streamed ids over the wire
        # while windows train/build/promote underneath the swap gate.
        deadline = time.monotonic() + 600.0
        tick = 0
        while applier.windows_applied < args.windows:
            if time.monotonic() > deadline:
                timed_out = True
                break
            if tick % 4 == 0 and new_ids:
                fire(new_ids[(tick // 4) % len(new_ids)])
            else:
                fire((tick * 7) % dataset.n_items)
            tick += 1
            time.sleep(0.005)
        staleness_after = metrics.gauge("stream_staleness_s")
        applier.stop()
        # Post-apply: every new listing must now serve from a real tier,
        # observed through the gateway, not the in-process service.
        for item_id in new_ids:
            tiers[str(item_id)] = fire(item_id)
        for extra in range(args.requests_per_window):
            fire((extra * 11) % dataset.n_items)
    finally:
        applier.stop()
        gateway.stop()
        service.close()

    reports = applier.history
    applied = [r for r in reports if r.applied]
    servable = bool(tiers) and all(
        tier not in ("popularity", "error") for tier in tiers.values()
    )
    doc = {
        "windows_requested": args.windows,
        "windows_applied": len(applied),
        "windows_quarantined": sum(1 for r in reports if r.quarantined),
        "duplicate_windows": sum(1 for r in reports if r.duplicate),
        "timed_out": timed_out,
        "sharded": store.n_shards > 1,
        "store_version": store.version,
        "new_items": new_ids,
        "new_item_tiers": tiers,
        "new_items_servable": servable,
        "requests_ok": served,
        "request_errors": errors,
        "staleness_before_last_apply_s": staleness_before,
        "staleness_after_last_apply_s": staleness_after,
        "stream_lag_events": metrics.gauge("stream_lag_events"),
        "moves": sum(len(r.moves) for r in applied),
        "apply_latency_s": latency_percentiles([r.apply_s for r in applied]),
        "reports": [r.as_dict() for r in reports],
    }
    _emit_json(doc, args.output)
    ok = (
        not timed_out
        and errors == 0
        and len(applied) >= args.windows
        and servable
    )
    return 0 if ok else 1


#: The one command table: ``name -> (declare its flags, run it)``.
_COMMANDS = {
    "generate": (_add_generate, _cmd_generate),
    "stats": (_add_stats, _cmd_stats),
    "train": (_add_train, _cmd_train),
    "evaluate": (_add_evaluate, _cmd_evaluate),
    "recommend": (_add_recommend, _cmd_recommend),
    "partition": (_add_partition, _cmd_partition),
    "serve-demo": (_add_serve_demo, _cmd_serve_demo),
    "loadgen": (_add_loadgen, _cmd_loadgen),
    "refresh-daemon": (_add_refresh_daemon, _cmd_refresh_daemon),
    "serve": (_add_serve, _cmd_serve),
    "stream": (_add_stream, _cmd_stream),
}


if __name__ == "__main__":
    sys.exit(main())
