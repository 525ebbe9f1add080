"""Extension bench — the quantized retrieval tier's memory contract.

Not a paper figure: quantifies the memory-bounded tier this repo adds
for catalogue-scale serving.  Two scenarios, one JSON report:

- ``recall_vs_bytes`` — one model, three IVF precisions (float32 /
  int8 / pq) over an ``n_probe`` sweep.  The contract: both quantized
  tiers keep resident index bytes at <= 40% of the float32 index while
  recall@10 stays >= 95% of the float path at every equal ``n_probe``
  (the exact re-rank of ``rerank*k`` survivors is what earns this).
- ``hitrate_parity`` — served HR@10 (table tier mostly disabled so ANN
  answers) of an int8 service vs the float32 service: within 2%.

Writes ``benchmarks/BENCH_memory.json``.  Runs under pytest
(``pytest benchmarks/bench_memory.py``) or standalone
(``python benchmarks/bench_memory.py [--smoke]``).
"""

import argparse
import json
from pathlib import Path

import numpy as np

from repro.core.ann import IVFIndex
from repro.core.similarity import SimilarityIndex
from repro.core.sisg import SISG
from repro.data.synthetic import SyntheticWorld, SyntheticWorldConfig
from repro.serving import (
    MatchingService,
    MatchingServiceConfig,
    ModelStore,
    build_bundle,
    evaluate_service_hitrate,
)

REPORT_PATH = Path(__file__).resolve().parent / "BENCH_memory.json"

#: Large enough that the PQ codebook (m * ksub * dsub floats, item-count
#: independent) amortizes against the code matrix; the 40% bytes bound
#: is checked at this scale, not asymptotically.
WORLD = SyntheticWorldConfig(
    n_items=1200,
    n_users=400,
    n_leaf_categories=24,
    n_top_categories=6,
)
K = 10
N_PROBES = (1, 2, 4, 8)
PRECISIONS = ("float32", "int8", "pq")
BYTES_BUDGET = 0.40
RECALL_FLOOR = 0.95
HR_TOLERANCE = 0.02


def build_setup(seed: int = 0, smoke: bool = False):
    """One world, an offline split, and a model trained on the split."""
    world = SyntheticWorld(WORLD, seed=seed)
    dataset = world.generate_dataset(n_sessions=1200 if smoke else 3000)
    train, test = dataset.split_last_item()
    model = (
        SISG.sisg_f(dim=32, epochs=1 if smoke else 2, window=2, negatives=5, seed=seed)
        .fit(train)
        .model
    )
    return train, test, model


# ----------------------------------------------------------------------
# scenario 1: recall@10 vs resident index bytes
# ----------------------------------------------------------------------


def measure_recall_vs_bytes(model, seed: int, n_queries: int) -> dict:
    """The recall-vs-bytes curve for every precision at equal settings."""
    index = SimilarityIndex(model)
    queries = index.item_ids[:n_queries]
    n_cells = max(1, int(np.sqrt(index.n_items)))
    probes = [p for p in N_PROBES if p <= n_cells] + [n_cells]

    curves = {}
    for precision in PRECISIONS:
        ivf = IVFIndex(
            index, n_cells=n_cells, seed=seed, precision=precision
        )
        curves[precision] = {
            "bytes": ivf.index_bytes(),
            "recall_at_10": {
                str(p): ivf.recall_at_k(queries, k=K, n_probe=p)
                for p in probes
            },
        }
    float_resident = curves["float32"]["bytes"]["resident"]
    for precision in ("int8", "pq"):
        entry = curves[precision]
        entry["bytes_ratio"] = entry["bytes"]["resident"] / float_resident
        entry["recall_ratio"] = {
            p: (
                entry["recall_at_10"][p]
                / max(curves["float32"]["recall_at_10"][p], 1e-12)
            )
            for p in entry["recall_at_10"]
        }
    return {
        "n_items": index.n_items,
        "n_cells": n_cells,
        "n_queries": len(queries),
        "precisions": curves,
    }


# ----------------------------------------------------------------------
# scenario 2: served HR@10, float32 vs int8
# ----------------------------------------------------------------------


def measure_hitrate_parity(model, train, test, seed: int = 0) -> dict:
    """Low table coverage forces the ANN tier; quantization must not
    move the served hit rate by more than the tolerance."""
    config = MatchingServiceConfig(default_k=K, cache_size=0)
    rates = {}
    for precision in ("float32", "int8"):
        bundle = build_bundle(
            model,
            train,
            table_coverage=0.1,
            seed=seed,
            ann_precision=precision,
        )
        service = MatchingService(ModelStore(bundle), config)
        result = evaluate_service_hitrate(
            service, test, ks=(K,), name=precision
        )
        rates[precision] = result.hit_rates[K]
    return {
        "table_coverage": 0.1,
        "n_test_sessions": len(test),
        "hr_at_10": rates,
        "relative_gap": abs(rates["int8"] - rates["float32"])
        / max(rates["float32"], 1e-12),
    }


def run(seed: int = 0, smoke: bool = False) -> dict:
    train, test, model = build_setup(seed, smoke=smoke)
    return {
        "recall_vs_bytes": measure_recall_vs_bytes(
            model, seed, n_queries=60 if smoke else 200
        ),
        "hitrate_parity": measure_hitrate_parity(model, train, test, seed),
    }


def check_report(report: dict) -> None:
    """The memory-tier contract asserted by pytest and main() alike."""
    curves = report["recall_vs_bytes"]["precisions"]
    for precision in ("int8", "pq"):
        entry = curves[precision]
        assert entry["bytes_ratio"] <= BYTES_BUDGET, (
            f"{precision} resident bytes at {entry['bytes_ratio']:.2f}x"
            f" float32 (budget {BYTES_BUDGET})"
        )
        for probe, ratio in entry["recall_ratio"].items():
            assert ratio >= RECALL_FLOOR, (
                f"{precision} recall@10 at n_probe={probe} is"
                f" {ratio:.3f}x float32 (floor {RECALL_FLOOR})"
            )

    parity = report["hitrate_parity"]
    assert parity["hr_at_10"]["float32"] > 0.0, "float service never hits"
    assert parity["relative_gap"] <= HR_TOLERANCE, (
        f"int8 HR@10 deviates {parity['relative_gap']:.3f} from float32"
        f" (tolerance {HR_TOLERANCE})"
    )


def test_memory_report():
    report = run(seed=0, smoke=True)
    check_report(report)
    print("\nExtension — quantized-tier memory report (JSON)")
    print(json.dumps(report, indent=2, sort_keys=True))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller world; asserts the contract, skips the report file",
    )
    args = parser.parse_args()
    report = run(seed=0, smoke=args.smoke)
    check_report(report)
    print(json.dumps(report, indent=2, sort_keys=True))
    if not args.smoke:
        REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
