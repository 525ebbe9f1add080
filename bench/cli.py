"""Command line of the benchmark.

``python3 -m bench run [--workload W] [--seed S] [--seconds T] [--trace 0|1]``
    Run one workload (or all five), print every metric by name and unit,
    run the correctness checks, and end with one JSON line per workload:
    ``{"correct", "attempted", "failed", "metrics"}``.  Exit code 1 if a
    check failed.

``python3 -m bench compare DIR_A DIR_B``
    Compare two directories of saved results (``bench/out`` of two runs).

``python3 -m bench selftest``
    Show that one seed gives byte-identical inputs in fresh processes and
    another seed does not.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from bench import REPO_ROOT
from bench.trace import now

#: ``--smoke``: a scale at which every code path runs in a couple of seconds.
SMOKE_SECONDS = 1.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one workload, or all of them")
    run.add_argument("--workload", default=None, help="default: every workload")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="length of the timed section (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                     help="1 = traced run reporting the per-layer metrics")
    run.add_argument("--smoke", action="store_true",
                     help=f"{SMOKE_SECONDS:g}-second scale, quality floors off")

    compare = commands.add_parser("compare", help="compare two result directories")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)

    digest = commands.add_parser("digest", help="print the SHA-256 of a workload's inputs")
    digest.add_argument("--workload", required=True)
    digest.add_argument("--seed", type=int, required=True)
    digest.add_argument("--seconds", type=float, default=SMOKE_SECONDS)

    commands.add_parser("selftest", help="same seed -> same inputs, in fresh processes")
    return parser


def _run(args) -> int:
    start = now()
    try:
        from bench import report, runner, workloads
    except ModuleNotFoundError as exc:
        if exc.name != "repro":
            raise
        print(f"cannot import repro: no src/ beside {REPO_ROOT / 'bench'}", file=sys.stderr)
        return 2
    import_s = now() - start
    if args.workload is not None and args.workload not in workloads.BY_NAME:
        print(f"unknown workload {args.workload!r}; choose from"
              f" {sorted(workloads.BY_NAME)}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if args.smoke:
        seconds = SMOKE_SECONDS
    elif seconds is None:
        seconds = float(report.catalogue()["run_seconds"])
    specs = (
        [workloads.BY_NAME[args.workload]] if args.workload else list(workloads.WORKLOADS)
    )
    results = []
    for spec in specs:
        result = runner.run_workload(
            spec, args.seed, seconds, bool(args.trace), smoke=args.smoke, import_s=import_s
        )
        result.print_report()
        print(f"saved {result.save().relative_to(REPO_ROOT)}")
        results.append(result)
        import_s = 0.0  # later workloads of one invocation find everything imported
    for result in results:
        print(result.final_line())
    return 0 if all(r.correct for r in results) else 1


def _digest(args) -> int:
    from bench import workloads

    inputs = workloads.generate(workloads.BY_NAME[args.workload], args.seed, args.seconds)
    print(inputs.digest())
    return 0


def _fresh_digest(workload: str, seed: int) -> str:
    out = subprocess.run(
        [sys.executable, "-m", "bench", "digest", "--workload", workload, "--seed", str(seed)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def _selftest(_args) -> int:
    from bench import workloads

    failures = 0
    for spec in workloads.WORKLOADS:
        first, again, other = (
            _fresh_digest(spec.name, seed) for seed in (1, 1, 2)
        )
        ok = first == again and first != other
        failures += not ok
        print(f"{spec.name:<12} seed 1: {first[:16]}  again: {again[:16]}"
              f"  seed 2: {other[:16]}  {'ok' if ok else 'FAILED'}")
    return 1 if failures else 0


def main(argv: "list[str] | None" = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    if args.command == "compare":
        from bench import report

        return report.compare(args.a, args.b)
    if args.command == "digest":
        return _digest(args)
    return _selftest(args)


if __name__ == "__main__":  # started by bench/__main__.py, which waits and reaps
    sys.exit(main())
