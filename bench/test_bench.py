"""The harness's own tests: ``python3 -m pytest bench -q`` (not part of tier 1).

Every workload runs once at ``--smoke`` scale, traced, and must print
every metric ``BENCHMARK.json`` names — finite and with a unit.  The rest
pins the pieces a wrong number could hide behind: input determinism, the
training composition, the windowed p95, the hard deadline of a load step,
and the verdicts of ``compare``.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from bench import REPO_ROOT, cli, hostspeed, netclient, report, runner, workloads
from bench.trace import Tracer, now
from repro.core import SISG
from repro.data import BehaviorDataset

SMOKE_SECONDS = cli.SMOKE_SECONDS
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# ----------------------------------------------------------------------
# the catalogue
# ----------------------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    spec = report.catalogue()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# inputs come from the seed alone
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", workloads.WORKLOADS, ids=lambda s: s.name)
def test_same_seed_same_inputs(spec):
    first = workloads.generate(spec, 5, SMOKE_SECONDS).digest()
    assert workloads.generate(spec, 5, SMOKE_SECONDS).digest() == first
    assert workloads.generate(spec, 6, SMOKE_SECONDS).digest() != first


def test_same_seed_same_inputs_in_a_fresh_process():
    spec = workloads.BY_NAME["wire_stream"]
    here = workloads.generate(spec, 5, SMOKE_SECONDS).digest()
    assert cli._fresh_digest(spec.name, 5) == here


# ----------------------------------------------------------------------
# every workload, every metric
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", workloads.WORKLOADS, ids=lambda s: s.name)
def test_smoke_run_prints_every_metric(spec):
    result = runner.run_workload(spec, seed=1, seconds=SMOKE_SECONDS, traced=True, smoke=True)
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted >= 1
    catalogue = report.catalogue()
    unit_of = report.units()
    for key, got in (("end_to_end", result.end_to_end), ("per_layer", result.per_layer)):
        assert set(got) == {m["name"] for m in catalogue[key]}
        for name, value in got.items():
            assert math.isfinite(value), name
            assert unit_of[name]
    # (HR@10 may legitimately read 0 after a 200-session smoke fit.)
    assert all(value != 0 for name, value in result.end_to_end.items() if name != "hr10")
    line = json.loads(result.final_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(result.per_layer)
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())
    result.traced = False
    assert set(json.loads(result.final_line())["metrics"]) == set(result.end_to_end)
    assert (report.OUT_DIR / f"trace-{spec.name}.json").exists()


# ----------------------------------------------------------------------
# pieces
# ----------------------------------------------------------------------


def test_training_composition_matches_sisg_fit():
    """``runner.train`` spells ``SISG.fit`` out to reach the trainer's
    counters; it must keep training exactly what the facade trains."""
    inputs = workloads.generate(workloads.BY_NAME["nightly"], 3, SMOKE_SECONDS)
    small = BehaviorDataset(
        inputs.day0.items, inputs.day0.users, inputs.day0.sessions[:120], validate=False
    )
    ours = runner.train(inputs.spec, small, Tracer(), hostspeed.Calibrator())
    facade = SISG.sisg_f_u_d(
        dim=workloads.DIM, window=5, negatives=5, epochs=2, dtype="float32"
    ).fit(small)
    np.testing.assert_array_equal(ours.model.w_in, facade.model.w_in)
    np.testing.assert_array_equal(ours.model.w_out, facade.model.w_out)


def _samples(latencies_ms, spacing_s=0.005):
    return [
        netclient.Sample(i, i * spacing_s, i * spacing_s, i * spacing_s,
                         i * spacing_s + ms / 1e3, 200)
        for i, ms in enumerate(latencies_ms)
    ]


def test_windowed_p95_ignores_one_stall():
    steady = [4.0] * 1000
    stalled = list(steady)
    stalled[100:180] = [250.0] * 80  # one long stall, inside the first sub-window
    p95_steady, n_sub = runner.windowed_p95(_samples(steady))
    p95_stalled, _ = runner.windowed_p95(_samples(stalled))
    assert n_sub == 5
    assert p95_steady == pytest.approx(4.0)
    assert p95_stalled == pytest.approx(4.0)
    assert np.quantile(stalled, 0.95) > 100  # the whole-step p95 does move


def test_open_loop_step_ends_at_its_deadline(monkeypatch):
    """A gateway that never answers: the step still ends, requests count failed."""
    monkeypatch.setattr(netclient, "DEADLINE_MIN_S", 0.3)
    monkeypatch.setattr(netclient, "DEADLINE_SHARE", 0.0)

    async def scenario():
        async def swallow(reader, _writer):
            await reader.read()  # never answer

        server = await asyncio.start_server(swallow, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        start = now()
        try:
            async with netclient.NetClient("127.0.0.1", port, connections=2) as client:
                due = np.linspace(0.0, 0.1, 10)
                samples = await netclient.open_loop(client, "/recommend", [b"{}"] * 10, due, 0.1)
        finally:
            server.close()
            await server.wait_closed()
        return samples, now() - start

    samples, elapsed = asyncio.run(scenario())
    assert len(samples) == 10 and not any(s.ok for s in samples)
    assert elapsed < 2.0


def _write_runs(directory, workload, metric_values):
    directory.mkdir()
    for i, values in enumerate(metric_values):
        doc = {"workload": workload, "end_to_end": values}
        (directory / f"result-{workload}-seed{i}-run.json").write_text(json.dumps(doc))


def test_compare_verdicts(tmp_path, capsys):
    base = [{"lat_p50_ms": v, "train_pairs_per_s": 800e3 + i, "nightly_s": n}
            for i, (v, n) in enumerate([(4.0, 5.0), (4.1, 9.0), (3.9, 5.2), (4.05, 8.5)])]
    change = [{"lat_p50_ms": v * 2, "train_pairs_per_s": 800e3 + i, "nightly_s": n}
              for i, (v, n) in enumerate([(4.0, 5.5), (4.1, 8.0), (3.9, 9.1), (4.05, 5.1)])]
    _write_runs(tmp_path / "a", "wire_single", base)
    _write_runs(tmp_path / "b", "wire_single", change)
    assert report.compare(tmp_path / "a", tmp_path / "b") == 1
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["lat_p50_ms"].split()[-2] == "worse"
    assert rows["train_pairs_per_s"].split()[-2] == "same"
    assert rows["nightly_s"].split()[-2] == "unresolved"  # spread wider than the bound


def test_reaper_waits_for_orphans_and_kills_stragglers():
    """``python3 -m bench`` returns only once nothing it started is alive."""
    script = (
        "import ctypes, importlib, subprocess, sys\n"
        "entry = importlib.import_module('bench.__main__')\n"
        "ctypes.CDLL(None).prctl(entry.PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)\n"
        "subprocess.run(['sh', '-c', 'sleep 0.2 & exit 0'])\n"
        "assert entry.reap_leftovers(5.0) is False  # ended by itself: waited for\n"
        "subprocess.run(['sh', '-c', 'sleep 60 & exit 0'])\n"
        "assert entry._children()\n"
        "assert entry.reap_leftovers(0.2) is True  # outstayed the deadline: killed\n"
        "assert not entry._children()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO_ROOT, capture_output=True, text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
