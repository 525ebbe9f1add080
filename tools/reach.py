"""Reach recorder: which ``src/`` functions does the product ever call?

Runs the nine examples, ``python3 -m bench run --smoke --trace 1``,
every ``sisg`` sub-command on a tiny generated world, and the paper
suite (``pytest benchmarks`` plus the standalone ``benchmarks/`` scripts
CI runs), each under a profile hook, then prints the functions under
``src/`` that none of them called, with their line counts.  A function
on that list has callers only in ``tests/`` (or none at all): surface
that costs upkeep and earns nothing in production.

Standard library only.  The hook is a generated ``sitecustomize`` put
first on ``PYTHONPATH``, so every Python process a run starts loads it:
spawned children, the bench's gateway child and forked workers alike.
It installs ``sys.setprofile`` and ``threading.setprofile`` and records
the code objects of ``src/`` that receive a ``call`` event.  Each
process writes what it saw when it exits, through ``atexit`` and, for
forked children, which leave through ``os._exit`` and skip ``atexit``,
through a wrapped ``os._exit``.  A process killed by a signal writes
nothing.

Usage, from the repository root::

    python3 tools/reach.py                      # all four groups of runs
    python3 tools/reach.py --only examples cli  # a subset
    python3 tools/reach.py --output reach.txt   # also write the report

The ``examples``, ``bench`` and ``cli`` groups take about three minutes
on 2 vCPUs; ``paper`` takes longer, since the hook slows every run.  A
run that exits non-zero, such as a paper test that fails, is named on
the report's ``FAILED`` line; its calls still count.  The paper group
runs a temporary copy of ``benchmarks/``, so the reports its scripts
write are thrown away with it.  It is not part of the test suite or CI.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The hook each process loads.  ``REACH_SRC`` is the directory whose
#: code objects count, ``REACH_OUT`` where each process writes its list.
SITECUSTOMIZE = '''
import atexit, os, sys, threading, time

_SRC = os.environ["REACH_SRC"]
_OUT = os.environ["REACH_OUT"]
_seen = set()
_skip = set()


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen and code not in _skip:
            if code.co_filename.startswith(_SRC):
                _seen.add(code)
            else:
                _skip.add(code)


def _dump():
    sys.setprofile(None)
    lines = sorted({f"{c.co_filename}:{c.co_firstlineno}" for c in _seen})
    path = os.path.join(_OUT, f"{os.getpid()}-{time.monotonic_ns()}.txt")
    with open(path, "w") as fh:
        fh.write("\\n".join(lines))


_exit = os._exit


def _exit_after_dump(code):
    try:
        _dump()
    finally:
        _exit(code)


os._exit = _exit_after_dump
atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''

EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
GROUPS = ["examples", "bench", "cli", "paper"]


def cli_runs(world: Path) -> list[list[str]]:
    """Every ``sisg`` sub-command once, on a tiny world under ``world``."""
    data, model = str(world / "data.npz"), str(world / "model")
    sisg = [sys.executable, "-m", "repro.cli"]
    train = [*sisg, "train", data, model, "--dim", "8", "--epochs", "1"]
    return [
        [*sisg, "generate", "--items", "200", "--users", "100",
         "--sessions", "600", "--seed", "7", data],
        [*sisg, "stats", data],
        *(
            [*train, "--engine", engine, "--workers", "2"]
            for engine in ("parallel", "tns", "distributed")
        ),
        train,
        [*sisg, "evaluate", data, model, "--ks", "10"],
        [*sisg, "recommend", model, "3"],
        [*sisg, "partition", data, "--workers", "2"],
        [*sisg, "serve-demo", data, model, "--table-coverage", "0.8"],
        [*sisg, "loadgen", data, model, "--requests", "200", "--swap-mid"],
        [*sisg, "refresh-daemon", data, model, "--cycles", "1",
         "--train-epochs", "1"],
        [*sisg, "serve", data, model, "--port", "0", "--duration", "2"],
        [*sisg, "stream", data, model, "--windows", "1"],
    ]


#: The standalone ``benchmarks/`` scripts the CI workflow runs.
PAPER_SCRIPTS = [
    ["bench_serving_latency.py"],
    ["bench_sharded_serving.py"],
    ["bench_refresh.py"],
    ["bench_streaming.py", "--smoke"],
    ["bench_training_throughput.py", "--smoke"],
    ["bench_training_throughput.py", "--scaling-smoke"],
    ["bench_memory.py", "--smoke"],
]


def runs(only: list[str], world: Path, paper: Path) -> list[list[str]]:
    """The commands of the ``only`` groups; ``paper`` is the copy of
    ``benchmarks/`` the paper group runs."""
    groups = {
        "examples": [[sys.executable, str(path)] for path in EXAMPLES],
        "bench": [[sys.executable, "-m", "bench", "run", "--smoke", "--trace", "1"]],
        "cli": cli_runs(world),
        "paper": [
            [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
             "-p", "no:cacheprovider", str(paper), "-q"],
            *(
                [sys.executable, str(paper / script), *flags]
                for script, *flags in PAPER_SCRIPTS
            ),
        ],
    }
    return [cmd for name in only for cmd in groups[name]]


def failed_tests(stdout: str) -> list[str]:
    """``file::test`` of each ``FAILED <path>::<test> - <why>`` line that
    pytest prints in its summary."""
    tests = []
    for line in stdout.splitlines():
        if line.startswith("FAILED "):
            path, _, test = line[7:].split(" - ")[0].partition("::")
            tests.append(f"{Path(path).name}::{test}")
    return tests


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (qualified name, lines)`` for every
    function and method under ``src/``.  The first line is the first
    decorator's, as in ``co_firstlineno``."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                found[path, first] = (name, child.end_lineno - first + 1)
                walk(child, path, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), str(path), "")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--only", nargs="+", choices=GROUPS, default=GROUPS,
    )
    parser.add_argument("--output", help="also write the report here")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = Path(tmp)
        hook, out, world = tmp / "hook", tmp / "out", tmp / "world"
        for directory in (hook, out, world):
            directory.mkdir()
        paper = tmp / "benchmarks"
        if "paper" in args.only:
            shutil.copytree(
                ROOT / "benchmarks", paper,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(hook), str(SRC)]),
            "REACH_SRC": str(SRC),
            "REACH_OUT": str(out),
        }
        failed = []
        for cmd in runs(args.only, world, paper):
            label = " ".join(Path(c).name if c.startswith("/") else c for c in cmd)
            print(f"reach: {label}", file=sys.stderr, flush=True)
            result = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
            if result.returncode != 0:
                tests = failed_tests(result.stdout)
                failed.append(f"{label} ({', '.join(tests)})" if tests else label)
                print(result.stderr[-2000:], file=sys.stderr)
        called = set()
        for dump in out.iterdir():
            for line in dump.read_text().splitlines():
                path, lineno = line.rsplit(":", 1)
                called.add((path, int(lineno)))

    functions = defined_functions()
    uncalled = sorted(key for key in functions if key not in called)
    lines = sum(functions[key][1] for key in uncalled)
    report = [
        f"{functions[key][1]:5d}  {Path(key[0]).relative_to(SRC)}:{key[1]}"
        f"  {functions[key][0]}"
        for key in uncalled
    ]
    report.append(
        f"{len(uncalled)} of {len(functions)} src/ functions never called"
        f" ({lines} lines); runs: {', '.join(args.only)}"
        + (f"; FAILED: {'; '.join(failed)}" if failed else "")
    )
    text = "\n".join(report)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
