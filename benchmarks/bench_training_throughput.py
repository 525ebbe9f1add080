"""Extension bench — training throughput of the three SGNS engines.

Not a paper figure: quantifies the parallel training engines this repo
adds on top of the paper's algorithms, all at the same kernels (there is
one SGNS step; see :mod:`repro.core.sgns`).  One JSON report
(``benchmarks/BENCH_training.json``), five sections:

- ``host`` — CPU count, load average and multiprocessing start method.
  Scaling numbers are meaningless without them: an earlier run of this
  bench "showed" 4 Hogwild workers slower than 1, which was a 1-core
  container time-slicing 4 processes, not an engine regression.
- ``sequential`` — pairs/sec of :class:`repro.core.sgns.SGNSTrainer`,
  the baseline the engine curves are read against.  (The before/after
  of the PR 4 kernel overhaul — seed kernels 147 k pairs/s, overhauled
  812 k — is a recorded measurement in README "Training performance";
  the losing kernels no longer exist to be re-run.)
- ``parallel`` / ``tns`` — pairs/sec of
  :class:`repro.core.hogwild.ParallelSGNSTrainer` at 1/2/4/8 workers
  under both hot-row sync paths (lock merge vs the parameter-server
  process), with speedup vs ``sequential``, and per worker the seconds
  of each worker-loop phase (``repro.core.hogwild.PHASES``) and the
  share of its output rows served from the hot replica — the base of
  the 1-worker "vs sequential" ratio.  Contract, on a box with
  >= 4 cores: 4-worker pairs/sec strictly above 1-worker (no
  anti-scaling).
- ``sharding`` — wall-clock of the vectorized ``shard_sequences`` on a
  large synthetic corpus.  Contract: array-op speed (the
  pre-vectorization per-sequence loops were setup-time hot spots).
- ``parity`` — HR@10 of ``parallel`` and ``tns`` SISG models at
  ``min(4, cpu_count)`` workers vs the sequential trainer on the same
  split.  Contract: within 5% relative — lock-free races, per-shard LR
  schedules and server merges must not cost retrieval quality.  Like the
  scaling contract it is judged only where every worker has a core: on a
  2-vCPU host, 4 time-sliced workers trail sequential by 4-7% run to run
  (2 workers: 1-3.5%).

A full run reports each timed entry as the median-throughput run of
``TIMED_REPEATS`` (the other runs' pairs/sec are kept alongside).  Runs under
pytest (``pytest benchmarks/bench_training_throughput.py``), standalone
(``python benchmarks/bench_training_throughput.py``), in CI
smoke mode (``--smoke``: smaller corpus, asserts the parity floor but
not the timing contracts — wall-clock on shared CI runners is noise),
or in CI scaling-smoke mode (``--scaling-smoke``: 1-vs-2-worker
wall-clock on both engines; on a multi-core runner 2 workers must not
be slower than 1 by more than 10%).
"""

import argparse
import functools
import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np

from repro.core.enrichment import build_enriched_corpus
from repro.core.hogwild import ParallelSGNSTrainer, shard_sequences
from repro.core.sgns import SGNSConfig, SGNSTrainer
from repro.core.sisg import SISG
from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig
from repro.eval.hitrate import evaluate_hitrate

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_training.json"

WORLD = SyntheticWorldConfig(
    n_items=600,
    n_users=400,
    n_leaf_categories=12,
    n_top_categories=4,
    forward_prob=0.9,
    forward_geom=0.65,
)

#: Every engine in this bench trains at these settings.
KERNELS = dict(dtype="float32", precompute_pairs=True, shuffle_pairs=True)

#: Contracts asserted on the report (also by CI smoke for parity).
MAX_PARITY_GAP = 0.05
#: 2 workers on a multi-core runner must stay within 10% of 1 worker.
MIN_TWO_WORKER_RATIO = 0.9
#: Vectorized sharding budget: per-sequence cost must stay at array-op
#: scale (the old per-sequence Python loops ran ~20-60us each).
MAX_SHARD_US_PER_SEQ = 10.0

WORKER_COUNTS = (1, 2, 4, 8)
#: Timed runs per configuration in a full run (smoke modes run once).
TIMED_REPEATS = 3
#: Workers of the parity models: at most one per core.
PARITY_WORKERS = min(4, os.cpu_count() or 1)
ENGINES = {"parallel": "lock", "tns": "server"}


def host_context() -> dict:
    """The facts needed to interpret any scaling number in this report."""
    try:
        load1, load5, load15 = os.getloadavg()
        load = [round(load1, 2), round(load5, 2), round(load15, 2)]
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX
        load = None
    return {
        "cpu_count": os.cpu_count() or 1,
        "loadavg": load,
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or "default",
        "fork_available": "fork" in multiprocessing.get_all_start_methods(),
        "sched_setaffinity": hasattr(os, "sched_setaffinity"),
    }


def build_corpus(n_sessions: int, seed: int = 0):
    world = SyntheticWorld(WORLD, seed=seed)
    dataset = world.generate_dataset(n_sessions=n_sessions)
    corpus = build_enriched_corpus(dataset, with_si=True, with_user_types=True)
    return dataset, corpus


def train_config(epochs: int) -> SGNSConfig:
    return SGNSConfig(
        dim=32, window=4, negatives=5, epochs=epochs, seed=0, **KERNELS
    )


def median_run(measure, repeats: int) -> dict:
    """The median-throughput entry of ``repeats`` calls of ``measure``."""
    runs = sorted(
        (measure() for _ in range(repeats)), key=lambda r: r["pairs_per_sec"]
    )
    best = runs[len(runs) // 2]
    if repeats > 1:
        best["pairs_per_sec_runs"] = [r["pairs_per_sec"] for r in runs]
    return best


def run_sequential(corpus, epochs: int, repeats: int = 1) -> dict:
    def measure() -> dict:
        trainer = SGNSTrainer(len(corpus.vocab), train_config(epochs))
        start = time.perf_counter()
        trainer.fit(corpus.sequences, corpus.vocab.counts)
        elapsed = time.perf_counter() - start
        return {
            "seconds": round(elapsed, 3),
            "pairs": trainer.pairs_trained,
            "pairs_per_sec": round(trainer.pairs_trained / elapsed, 1),
        }

    return median_run(measure, repeats)


def run_engine_scaling(
    corpus,
    epochs: int,
    sequential_pairs_per_sec: float,
    hot_sync: str,
    worker_counts=WORKER_COUNTS,
    repeats: int = 1,
) -> dict:
    """Wall-clock pairs/sec of one engine across worker counts, with
    each worker's phase seconds and hot share of output rows."""

    def measure(n_workers: int) -> dict:
        cfg = train_config(epochs)
        trainer = ParallelSGNSTrainer(
            len(corpus.vocab), cfg, n_workers=n_workers, hot_sync=hot_sync
        )
        start = time.perf_counter()
        trainer.fit(corpus.sequences, corpus.vocab.counts)
        elapsed = time.perf_counter() - start
        pps = trainer.pairs_trained / elapsed
        return {
            "seconds": round(elapsed, 3),
            "pairs": trainer.pairs_trained,
            "pairs_per_sec": round(pps, 1),
            "speedup_vs_sequential": round(pps / sequential_pairs_per_sec, 2),
            "hot_rows": trainer.n_hot,
            "shard_sizes": trainer.shard_sizes,
            "feed_mode": trainer.feed_mode,
            "pinned": trainer.pinned,
            "worker_seconds": [round(r.seconds, 3) for r in trainer.worker_reports],
            "worker_phase_seconds": [
                {name: round(sec, 3) for name, sec in r.phase_seconds.items()}
                for r in trainer.worker_reports
            ],
            "hot_share_of_output_rows": [
                round(r.hot_share, 4) for r in trainer.worker_reports
            ],
        }

    out = {"hot_sync": hot_sync, "workers": {}}
    for n_workers in worker_counts:
        out["workers"][str(n_workers)] = median_run(
            functools.partial(measure, n_workers), repeats
        )
    return out


def run_shard_timing(n_seqs: int = 50_000) -> dict:
    """Vectorized ``shard_sequences`` must run at array-op speed."""
    rng = np.random.default_rng(0)
    lengths = rng.integers(2, 60, size=n_seqs)
    tokens = 2_000
    seqs = [rng.integers(0, tokens, size=int(n)) for n in lengths]

    out = {"sequences": n_seqs}
    start = time.perf_counter()
    shards = shard_sequences(seqs, 8, window=5)
    out["contiguous_seconds"] = round(time.perf_counter() - start, 4)
    assert sum(len(s) for s in shards) == n_seqs
    out["us_per_sequence"] = round(
        out["contiguous_seconds"] / n_seqs * 1e6, 3
    )
    out["max_us_per_sequence"] = MAX_SHARD_US_PER_SEQ
    assert out["us_per_sequence"] <= MAX_SHARD_US_PER_SEQ, (
        f"shard_sequences at {out['us_per_sequence']}us/seq — the"
        f" vectorized assignment budget is {MAX_SHARD_US_PER_SEQ}us/seq"
    )
    return out


def run_parity(dataset, epochs: int) -> dict:
    """HR@10 of sequential vs ``PARITY_WORKERS``-worker parallel and tns."""
    train, test = dataset.split_last_item()
    settings = dict(
        dim=32, window=3, epochs=epochs, negatives=5,
        learning_rate=0.05, subsample_threshold=1e-4, seed=3,
        **KERNELS,
    )
    sequential = SISG.sisg_f_u(**settings).fit(train)
    seq_result = evaluate_hitrate(
        sequential.index, test, ks=(10,), name="sequential"
    )
    hr_seq = seq_result.hit_rates[10]
    # One-sample binomial std of HR@10 on this test set: gaps below it
    # are measurement noise, not engine drift.
    noise = (hr_seq * (1 - hr_seq) / max(seq_result.n_queries, 1)) ** 0.5
    out = {
        "hr10_sequential": round(hr_seq, 4),
        "n_test_queries": seq_result.n_queries,
        "hr10_binomial_std": round(noise, 4),
        "max_allowed_gap": MAX_PARITY_GAP,
        "workers": PARITY_WORKERS,
    }
    for engine in ENGINES:
        fitted = SISG.sisg_f_u(
            engine=engine, n_workers=PARITY_WORKERS, **settings
        ).fit(train)
        hr = evaluate_hitrate(
            fitted.index, test, ks=(10,), name=f"{engine}-{PARITY_WORKERS}"
        ).hit_rates[10]
        out[f"hr10_{engine}"] = round(hr, 4)
        out[f"relative_gap_{engine}"] = round(
            abs(hr - hr_seq) / max(hr_seq, 1e-12), 4
        )
    return out


def run(smoke: bool = False) -> dict:
    n_sessions = 1200 if smoke else 4000
    epochs = 2
    repeats = 1 if smoke else TIMED_REPEATS
    worker_counts = (1, 2) if smoke else WORKER_COUNTS
    dataset, corpus = build_corpus(n_sessions)
    sequential = run_sequential(corpus, epochs, repeats)
    report = {
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "host": host_context(),
        "corpus": {
            "sessions": n_sessions,
            "vocab": len(corpus.vocab),
            "tokens": corpus.n_tokens,
        },
        "sequential": sequential,
        "sharding": run_shard_timing(5_000 if smoke else 50_000),
        "parity": run_parity(dataset, epochs=5 if smoke else 6),
        "contracts": {
            "max_parity_gap": MAX_PARITY_GAP,
            "max_shard_us_per_seq": MAX_SHARD_US_PER_SEQ,
            "no_anti_scaling_4w": "enforced when host cpu_count >= 4",
        },
    }
    for engine, hot_sync in ENGINES.items():
        report[engine] = run_engine_scaling(
            corpus, epochs, sequential["pairs_per_sec"], hot_sync,
            worker_counts, repeats,
        )
    report["host"]["loadavg_after"] = host_context()["loadavg"]
    return report


def run_scaling_smoke() -> dict:
    """CI mode for the 2-core runner: 2 workers must not anti-scale."""
    _, corpus = build_corpus(1500)
    sequential = run_sequential(corpus, epochs=1)
    report = {
        "mode": "scaling-smoke",
        "host": host_context(),
        "sequential": sequential,
    }
    for engine, hot_sync in ENGINES.items():
        report[engine] = run_engine_scaling(
            corpus, 1, sequential["pairs_per_sec"], hot_sync,
            worker_counts=(1, 2),
        )
    return report


def check_scaling_smoke(report: dict) -> None:
    cores = report["host"]["cpu_count"]
    for engine in ENGINES:
        workers = report[engine]["workers"]
        one = workers["1"]["pairs_per_sec"]
        two = workers["2"]["pairs_per_sec"]
        ratio = two / one
        print(f"{engine}: 2w/1w pairs/sec ratio {ratio:.2f} ({cores} cores)")
        if cores >= 2:
            assert ratio >= MIN_TWO_WORKER_RATIO, (
                f"{engine}: 2 workers at {ratio:.2f}x of 1 worker on a"
                f" {cores}-core host (floor {MIN_TWO_WORKER_RATIO})"
            )


def check_report(report: dict, timing: bool = True) -> None:
    """The perf contract.  ``timing=False`` (CI smoke) checks parity
    only — wall-clock on shared runners is not a stable signal."""
    parity = report["parity"]
    for engine in ENGINES:
        gap = parity[f"relative_gap_{engine}"]
        assert gap <= MAX_PARITY_GAP, (
            f"{parity['workers']}-worker {engine} HR@10 {parity[f'hr10_{engine}']} drifted"
            f" {gap:.1%} from sequential {parity['hr10_sequential']}"
            f" (floor {MAX_PARITY_GAP:.0%})"
        )
    if not timing:
        return
    # The no-anti-scaling contract is a *scaling* statement; it can only
    # be judged where the OS can actually run 4 workers concurrently:
    # asking a 1-core box for 4-process speedup measures the scheduler,
    # not the engine.
    cores = report["host"]["cpu_count"]
    if cores >= 4:
        for engine in ENGINES:
            workers = report[engine]["workers"]
            one = workers["1"]["pairs_per_sec"]
            four_pps = workers["4"]["pairs_per_sec"]
            assert four_pps > one, (
                f"{engine}: 4 workers ({four_pps} pairs/s) do not beat 1"
                f" worker ({one} pairs/s) on a {cores}-core host"
            )


def test_training_throughput_smoke(benchmark):
    report = run(smoke=True)
    check_report(report, timing=False)
    print("\nExtension — training throughput report (smoke, JSON)")
    print(json.dumps(report, indent=2, sort_keys=True))

    corpus = build_corpus(400)[1]
    cfg = train_config(epochs=1)
    benchmark(
        lambda: SGNSTrainer(len(corpus.vocab), cfg).fit(
            corpus.sequences, corpus.vocab.counts
        )
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: smaller corpus, parity floor only, no JSON file",
    )
    parser.add_argument(
        "--scaling-smoke", action="store_true",
        help="CI mode: 1-vs-2-worker wall-clock on both engines; asserts"
        " 2 workers are not >10%% slower than 1 on a multi-core host",
    )
    args = parser.parse_args()
    if args.scaling_smoke:
        report = run_scaling_smoke()
        print(json.dumps(report, indent=2, sort_keys=True))
        check_scaling_smoke(report)
        return
    report = run(smoke=args.smoke)
    check_report(report, timing=not args.smoke)
    print(json.dumps(report, indent=2, sort_keys=True))
    if not args.smoke:
        REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"\nwrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
