"""Results: the metric catalogue, host context, printing and comparison.

``BENCHMARK.json`` is the single catalogue of metric names, units,
directions and bounds; nothing here repeats it.  A run's result carries
three groups of numbers:

- ``end_to_end`` — every end-to-end metric of the catalogue;
- ``per_layer`` — every per-layer metric of the catalogue (traced runs);
- ``extras`` — numbers only some workloads have (the rate steps of
  ``wire_single``, reads during/outside an apply on ``wire_stream``).
  They are printed and saved, but the catalogue holds only metrics every
  workload reports.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import statistics
import subprocess
from dataclasses import asdict, dataclass, field
from pathlib import Path

from bench import REPO_ROOT, THREAD_PINS

OUT_DIR = REPO_ROOT / "bench" / "out"


def catalogue() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def units() -> dict[str, str]:
    """``metric name -> unit`` for every metric in the catalogue."""
    spec = catalogue()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


@dataclass
class Result:
    workload: str
    seed: int
    seconds: float
    traced: bool
    attempted: int = 0
    failed: int = 0
    #: Correctness checks that gate the result: ``name -> problem`` for
    #: every check that did not hold (empty = correct).
    problems: dict[str, str] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: The compute-bound end-to-end metrics as measured, before the
    #: host-speed correction (see ``bench/hostspeed.py``).
    raw: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)
    #: Sample counts behind the timing metrics (``metric -> n``).
    counts: dict[str, int] = field(default_factory=dict)
    host: dict = field(default_factory=dict)
    input_digest: str = ""

    @property
    def correct(self) -> bool:
        return not self.problems

    def final_line(self) -> str:
        """The one JSON object the contract wants on the last line."""
        unit_of = units()
        chosen = self.per_layer if self.traced else self.end_to_end
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {
                    name: {"value": value, "unit": unit_of[name]}
                    for name, value in chosen.items()
                },
            }
        )

    def save(self) -> Path:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        kind = "trace" if self.traced else "run"
        path = OUT_DIR / f"result-{self.workload}-seed{self.seed}-{kind}.json"
        path.write_text(json.dumps(asdict(self), indent=1, sort_keys=True) + "\n")
        return path

    def print_report(self) -> None:
        unit_of = units()
        print(f"== {self.workload}  seed={self.seed}  seconds={self.seconds:g}"
              f"  traced={int(self.traced)}  inputs={self.input_digest[:12]}")
        for title, group in (("end to end", self.end_to_end),
                             ("as measured, before the host-speed correction", self.raw),
                             ("per layer", self.per_layer),
                             ("extras", self.extras)):
            if not group:
                continue
            print(f"-- {title}")
            for name, value in group.items():
                n = f"  (n={self.counts[name]})" if name in self.counts else ""
                print(f"  {name:<42} {value:>14.6g} {unit_of.get(name, ''):<10}{n}")
        share = self.failed / self.attempted if self.attempted else float("nan")
        print(f"-- attempted={self.attempted} failed={self.failed} failed_share={share:g}")
        for name, problem in self.problems.items():
            print(f"!! check failed: {name}: {problem}")


def validate(result: Result) -> None:
    """Every catalogue metric of the run's kind is present and finite."""
    spec = catalogue()
    wanted = spec["per_layer"] if result.traced else spec["end_to_end"]
    got = result.per_layer if result.traced else result.end_to_end
    for metric in wanted:
        value = got.get(metric["name"])
        if value is None or not math.isfinite(value):
            result.problems[f"metric:{metric['name']}"] = f"missing or not finite: {value!r}"
    unknown = set(got) - {m["name"] for m in wanted}
    if unknown:
        result.problems["metric:unknown"] = f"not in BENCHMARK.json: {sorted(unknown)}"


# ----------------------------------------------------------------------
# host context
# ----------------------------------------------------------------------


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=5, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _openblas_version() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # older numpy: no structured form
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def host_context(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "fork_available": "fork" in multiprocessing.get_all_start_methods(),
        "git_sha": _git_sha(),
        "seed": seed,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# comparing two sets of runs
# ----------------------------------------------------------------------


def _load_runs(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("result-*-run.json")):
        doc = json.loads(path.read_text())
        runs.setdefault(doc["workload"], []).append(doc["end_to_end"])
    return runs


def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 with < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def compare(dir_a: Path, dir_b: Path) -> int:
    """One row per workload x end-to-end metric: medians, bound, verdict.

    ``worse`` means B's median is worse than A's by more than the bound;
    ``better`` the opposite; ``unresolved`` means the run-to-run spread of
    either side exceeds the bound (unless every run of one side beats
    every run of the other, which resolves it).  Returns 1 if any row is
    ``worse``.
    """
    spec = catalogue()
    runs_a, runs_b = _load_runs(dir_a), _load_runs(dir_b)
    any_worse = False
    print(f"{'workload':<12} {'metric':<20} {'A median':>12} {'B median':>12}"
          f" {'change':>8} {'bound':>6} {'spread':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = [r[metric["name"]] for r in runs_a.get(workload, []) if metric["name"] in r]
            b = [r[metric["name"]] for r in runs_b.get(workload, []) if metric["name"] in r]
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = -1.0 if metric["better"] == "lower" else 1.0
            change = sign * (med_b - med_a) / abs(med_a)  # > 0 = B better
            spread = max(_spread(a), _spread(b))
            disjoint_better = (
                min(b) > max(a) if metric["better"] == "higher" else max(b) < min(a)
            )
            disjoint_worse = (
                max(b) < min(a) if metric["better"] == "higher" else min(b) > max(a)
            )
            if spread > metric["bound"] and not (disjoint_better or disjoint_worse):
                verdict = "unresolved"
            elif change < -metric["bound"]:
                verdict, any_worse = "worse", True
            elif change > metric["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{workload:<12} {metric['name']:<20} {med_a:>12.5g} {med_b:>12.5g}"
                  f" {change:>+8.1%} {metric['bound']:>6.0%} {spread:>7.1%}  {verdict}"
                  f"  (n={len(a)}/{len(b)})")
    return 1 if any_worse else 0
