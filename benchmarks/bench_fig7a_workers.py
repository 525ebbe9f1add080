"""Fig. 7(a) — training time versus number of workers.

The paper trains SISG on Taobao100M with 4-32 workers and observes the
training time tracking ``y = c / x``.  We run the simulated engine on the
scaled world for the same worker counts and assert (1) strictly
decreasing simulated time and (2) a good fit to ``c / w`` — the mean
relative deviation from the best-fit inverse curve must stay small.

The JSON report (``BENCH_fig7a_workers.json``) additionally
*cross-validates* the simulation against the real wall-clock scaling of
the shared-memory Hogwild engine measured by
``bench_training_throughput.py`` (read from ``BENCH_training.json``
when present): the simulated curve, evaluated at the number of workers
the measurement host could actually run concurrently
(``min(workers, cpu_count)``), must predict the real speedup curve to a
mean relative deviation of at most ``MAX_REAL_DEVIATION``.  The
effective-worker clamp is the whole point — an earlier run read a
1-core container's time-sliced 4-worker throughput as an engine
regression; with the host context recorded and the prediction clamped,
the same data validates the cost model instead of contradicting it.
"""

import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.enrichment import build_enriched_corpus
from repro.core.sgns import SGNSConfig
from repro.distributed.engine import train_distributed
from repro.distributed.partition import build_token_partition
from repro.graph.hbgp import HBGPConfig, hbgp_partition

#: The paper's Fig. 7(a) x-axis (the 1/x-fit contract applies here).
WORKER_COUNTS = (4, 8, 16, 32)
#: Extra simulated points so real 1/2/4/8-worker curves have simulated
#: counterparts to be judged against.
SIM_COUNTS = (1, 2) + WORKER_COUNTS

#: Simulated-curve fit bound (must tighten, never loosen).
MAX_FIT_DEVIATION = 0.40
#: Real-vs-simulated speedup bound at effective (core-clamped) workers.
MAX_REAL_DEVIATION = 0.35

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_fig7a_workers.json"
TRAINING_REPORT_PATH = Path(__file__).resolve().parent / "BENCH_training.json"


def host_context() -> dict:
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX
        load = None
    return {
        "cpu_count": os.cpu_count() or 1,
        "loadavg": load,
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or "default",
    }


def load_real_scaling() -> dict | None:
    """Wall-clock engine scaling from ``bench_training_throughput``."""
    if not TRAINING_REPORT_PATH.exists():
        return None
    report = json.loads(TRAINING_REPORT_PATH.read_text())
    if "parallel" not in report:
        return None
    real = {
        "source": TRAINING_REPORT_PATH.name,
        "host": report.get("host"),
        "sequential_pairs_per_sec": report["sequential"]["pairs_per_sec"],
        "engines": {},
    }
    for engine in ("parallel", "tns"):
        if engine not in report:
            continue
        real["engines"][engine] = {
            w: {
                "pairs_per_sec": stats["pairs_per_sec"],
                "speedup_vs_sequential": stats["speedup_vs_sequential"],
            }
            for w, stats in report[engine]["workers"].items()
        }
    return real


def cross_validate(real: dict, sim_times: dict) -> dict | None:
    """Judge the real speedup curve against the simulation's prediction.

    The simulation models perfect process concurrency; a host with
    fewer cores than workers runs only ``cpu_count`` of them at a time,
    so the prediction for ``w`` workers is evaluated at the *effective*
    worker count ``min(w, cpu_count)`` (clamped to the largest simulated
    count below it).  Real speedups are measured against the engine's
    own 1-worker wall-clock.
    """
    if real is None or "parallel" not in real["engines"]:
        return None
    workers = real["engines"]["parallel"]
    if "1" not in workers:
        return None
    cores = (real.get("host") or {}).get("cpu_count") or (os.cpu_count() or 1)
    base_pps = workers["1"]["pairs_per_sec"]
    sim_counts = sorted(sim_times)
    points = {}
    deviations = []
    for w_str, stats in sorted(workers.items(), key=lambda kv: int(kv[0])):
        w = int(w_str)
        effective = min(w, cores)
        effective = max(c for c in sim_counts if c <= effective)
        predicted = sim_times[1] / sim_times[effective]
        measured = stats["pairs_per_sec"] / base_pps
        deviation = abs(measured - predicted) / predicted
        deviations.append(deviation)
        points[w_str] = {
            "effective_workers": effective,
            "predicted_speedup_vs_1w": round(predicted, 3),
            "measured_speedup_vs_1w": round(measured, 3),
            "relative_deviation": round(deviation, 4),
        }
    return {
        "method": "real pairs/sec vs 1w, predicted by sim_time(1) /"
        " sim_time(min(w, cpu_count))",
        "measurement_host_cpu_count": cores,
        "workers": points,
        "mean_relative_deviation": round(float(np.mean(deviations)), 4),
        "max_allowed_deviation": MAX_REAL_DEVIATION,
    }


TRAIN_CFG = SGNSConfig(
    dim=32, epochs=1, window=2, negatives=20, seed=5, subsample_threshold=1e-3,
    # The cost-model fit below is calibrated on corpus-order streaming;
    # the materialized/shuffled pair stream draws subsampling from a
    # different RNG sequence and shifts the simulated times slightly.
    precompute_pairs=False, shuffle_pairs=False,
)


@pytest.fixture(scope="module")
def corpus(scale_dataset):
    return build_enriched_corpus(scale_dataset, with_si=True, with_user_types=True)


@pytest.fixture(scope="module")
def hbgp_items(scale_dataset):
    return {
        w: hbgp_partition(scale_dataset, HBGPConfig(n_partitions=w)).item_partition
        for w in SIM_COUNTS
    }


def test_fig7a_training_time_vs_workers(benchmark, corpus, hbgp_items, scale_dataset):
    """Simulated training time must track 1/x in the worker count."""
    times = {}
    stats = {}
    for w in SIM_COUNTS:
        partition = build_token_partition(
            corpus, w, item_partition=hbgp_items[w], seed=TRAIN_CFG.seed
        )
        result = train_distributed(
            corpus, TRAIN_CFG, n_workers=w, partition=partition
        )
        times[w] = result.stats.simulated_seconds
        stats[w] = result.stats

    # Time a representative cheap kernel so --benchmark-only records a
    # number (the heavy experiment itself ran above, once).
    benchmark(
        build_token_partition,
        corpus,
        8,
        item_partition=hbgp_items[8],
        seed=TRAIN_CFG.seed,
    )

    print("\nFig. 7(a) (scaled) — training time vs workers")
    print(f"{'workers':>8s} {'sim_time_s':>12s} {'remote_frac':>12s} {'imbalance':>10s}")
    for w in SIM_COUNTS:
        print(
            f"{w:>8d} {times[w]:>12.3f} {stats[w].remote_fraction:>12.3f}"
            f" {stats[w].compute_imbalance:>10.2f}"
        )

    series = np.asarray([times[w] for w in SIM_COUNTS])
    # Strictly decreasing in the worker count, 1 through 32.
    assert np.all(np.diff(series) < 0), series
    # Fit t(w) = c / w on the paper's worker counts (least squares on c)
    # and check relative deviation.
    fig7a = np.asarray([times[w] for w in WORKER_COUNTS])
    ws = np.asarray(WORKER_COUNTS, dtype=float)
    c = float((fig7a * ws).mean())
    fitted = c / ws
    deviation = float(np.mean(np.abs(fig7a - fitted) / fitted))
    print(f"best-fit c={c:.2f}, mean relative deviation from 1/x: {deviation:.1%}")
    # At this scale the 32-worker point carries visible sync overhead,
    # flattening the tail of the curve; the shape (monotone, roughly
    # inverse) is the reproduction target, not a tight 1/x fit.
    assert deviation < MAX_FIT_DEVIATION

    real = load_real_scaling()
    real_vs_sim = cross_validate(real, times)
    if real_vs_sim is not None:
        print(
            "real-vs-simulated mean relative deviation:"
            f" {real_vs_sim['mean_relative_deviation']:.1%}"
            f" (bound {MAX_REAL_DEVIATION:.0%})"
        )
        assert (
            real_vs_sim["mean_relative_deviation"] <= MAX_REAL_DEVIATION
        ), real_vs_sim

    report = {
        "host": host_context(),
        "simulated": {
            "engine": "TNS/ATNS cost model (repro.distributed.engine)",
            "workers": {
                str(w): {
                    "simulated_seconds": round(times[w], 3),
                    "remote_fraction": round(stats[w].remote_fraction, 3),
                    "compute_imbalance": round(stats[w].compute_imbalance, 2),
                }
                for w in SIM_COUNTS
            },
            "inverse_fit_c": round(c, 2),
            "mean_relative_deviation": round(deviation, 4),
            "max_allowed_deviation": MAX_FIT_DEVIATION,
        },
        "real_wall_clock": real,
        "real_vs_simulated": real_vs_sim,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"wrote {REPORT_PATH}")
