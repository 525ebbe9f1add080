"""Runs one workload: train -> publish -> refresh -> read -> stream -> check.

Every workload is the same day in the life of the system, carried
through the public APIs of ``repro.data``, ``repro.core``,
``repro.graph``, ``repro.serving`` and ``repro.streaming``; the
``WorkloadSpec`` decides which phase gets the time and which
configuration is under load.  Phase boundaries are spans on the
harness's tracer, and the end-to-end metrics are read off those spans,
the load generator's samples and the reports the program itself returns.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import os
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from bench import child as child_module
from bench import hostspeed, netclient, probes, report, workloads
from bench.trace import Tracer, now, span_cost_s
from repro.core import EmbeddingModel, SGNSConfig, SGNSTrainer, SimilarityIndex
from repro.core import sisg as sisg_module
from repro.core.hogwild import ParallelSGNSTrainer
from repro.data import ITEM_SI_FEATURES, BehaviorDataset
from repro.eval import evaluate_hitrate

#: Inputs are generated this many times; ``setup_s`` uses the median.
SETUP_REPEATS = 3

#: Sessions of the untimed warm-up fit.
WARMUP_SESSIONS = 150

#: Hogwild engine under test: the reference box has two cores.
PARALLEL_WORKERS = 2

#: Correctness floors of a full-scale run (a smoke run trains too little).
HR10_FLOOR = 0.5

#: Latency limit for a rate step to count as sustained (``max_rate_ok``).
RATE_P95_LIMIT_MS = 25.0
RATE_DRAIN_LIMIT_S = 0.5

#: Wire answers re-derived in process and compared, per workload.
VERIFY_SAMPLES = 200

#: Deadlines on the control pipe (seconds).
READY_TIMEOUT_S = 60.0
RPC_TIMEOUT_S = 120.0
JOIN_TIMEOUT_S = 15.0

HOST = "127.0.0.1"

#: Harness spans that cover waiting on another process or on the clock;
#: they are left out when stage self-times are added up (``publish`` waits
#: for the child to start, build and listen: the child's own spans and
#: ``gateway.start_s`` account for that time).
WAITING_SPANS = frozenset({"day0", "publish", "refresh", "warmup", "reads", "stream"})


def sgns_config() -> SGNSConfig:
    """SISG-F-U-D's trainer settings, as ``SISG.sisg_f_u_d(...)`` derives them.

    The item-level window of 5 is scaled by the tokens each item occupies
    once side information is injected, and sampling is directional;
    ``bench/test_bench.py`` checks this composition still trains the same
    weights as ``SISG.fit``.
    """
    return SGNSConfig(
        dim=workloads.DIM,
        window=5 * (1 + len(ITEM_SI_FEATURES)),
        negatives=5,
        epochs=2,
        dtype="float32",
        directional=True,
    )


@dataclass
class Trained:
    model: EmbeddingModel
    trainer: object
    corpus: object
    keep: np.ndarray
    config: SGNSConfig
    fit_s: float
    #: Host-speed samples taken right before and right after the fit.
    speed: "list[float]"


def train(
    spec: workloads.WorkloadSpec, dataset, tracer: Tracer, calibrator: hostspeed.Calibrator
) -> Trained:
    """Day-0 training: enrich, then fit on the workload's engine."""
    config = sgns_config()
    with tracer.span("enrich"):
        corpus = sisg_module.build_enriched_corpus(
            dataset, with_si=True, with_user_types=True
        )
        keep = sisg_module.kind_aware_keep(corpus, config.subsample_threshold)
    if spec.engine == "parallel":
        trainer = ParallelSGNSTrainer(
            len(corpus.vocab), config, n_workers=PARALLEL_WORKERS, hot_sync="lock"
        )
    else:
        trainer = SGNSTrainer(len(corpus.vocab), config)
    before = calibrator.sample()
    with tracer.span("fit") as span:
        trainer.fit(corpus.sequences, corpus.vocab.counts, keep_probabilities=keep)
    fit_s = span["end"] - span["start"]
    model = EmbeddingModel(corpus.vocab, trainer.w_in, trainer.w_out)
    return Trained(model, trainer, corpus, keep, config, fit_s, [before, calibrator.sample()])


# ----------------------------------------------------------------------
# the gateway child
# ----------------------------------------------------------------------


class GatewayChild:
    """Owns the child process: start, deadline-bounded RPC, guaranteed reap."""

    def __init__(self, config: child_module.ChildConfig) -> None:
        # spawn, not fork: this process may already hold threads, and a
        # fresh interpreter is what a deployed gateway starts from.
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=child_module.main, args=(child_conn, config), name="bench-gateway"
        )
        self.spawned_at = now()
        self._proc.start()
        child_conn.close()
        self.ready: dict = {}

    def wait_ready(self) -> None:
        """Read the ephemeral port (and start-up timestamps) back over the pipe."""
        kind, payload = self._recv(READY_TIMEOUT_S)
        if kind != "ready":
            raise RuntimeError(f"gateway child failed to start: {payload}")
        self.ready = payload

    def _recv(self, timeout_s: float):
        if not self._conn.poll(timeout_s):
            raise TimeoutError(f"gateway child silent for {timeout_s}s")
        kind, payload = self._conn.recv()
        if kind == "error":
            raise RuntimeError(f"gateway child raised:\n{payload}")
        return kind, payload

    def rpc(self, *command, timeout_s: float = RPC_TIMEOUT_S):
        self._conn.send(command)
        return self._recv(timeout_s)[1]

    def close(self) -> None:
        """Stop and reap the child on every path; escalate if it lingers."""
        try:
            if self._proc.is_alive():
                self._conn.send(("stop",))
        except (OSError, ValueError):
            pass
        self._proc.join(JOIN_TIMEOUT_S)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(JOIN_TIMEOUT_S)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(JOIN_TIMEOUT_S)
        self._conn.close()

    @property
    def exitcode(self) -> "int | None":
        return self._proc.exitcode


# ----------------------------------------------------------------------
# latency summaries
# ----------------------------------------------------------------------


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q)) if values else float("nan")


def windowed_p95(samples: list[netclient.Sample]) -> tuple[float, int]:
    """p95 per sub-window, median over sub-windows -> ``(ms, n sub-windows)``.

    One scheduler stall lands in one sub-window and cannot move the
    median.  Sub-windows split the step evenly by due time and hold at
    least 200 samples each (ten beyond their p95), at most five.
    """
    ok = [s for s in samples if s.ok]
    if not ok:
        return float("nan"), 0
    n_sub = max(1, min(5, len(ok) // 200))
    first = min(s.due for s in ok)
    width = (max(s.due for s in ok) - first) / n_sub or 1.0
    buckets: list[list[float]] = [[] for _ in range(n_sub)]
    for s in ok:
        buckets[min(int((s.due - first) / width), n_sub - 1)].append((s.done - s.due) * 1e3)
    return statistics.median(_quantile(b, 0.95) for b in buckets if b), n_sub


def latencies_ms(samples: list[netclient.Sample]) -> list[float]:
    return [(s.done - s.due) * 1e3 for s in samples if s.ok]


def _median(values) -> float:
    """Median, or NaN of an empty sample (which ``report.validate`` then flags)."""
    values = list(values)
    return statistics.median(values) if values else float("nan")


# ----------------------------------------------------------------------
# the serving half of the day (async: the load generator lives here)
# ----------------------------------------------------------------------


@dataclass
class Served:
    """Everything the serving phases observed."""

    first_answer_at: float = 0.0
    first_answer_ms: float = 0.0
    #: Host-speed sample taken by the harness right after the first answer.
    first_answer_speed: float = 0.0
    #: One ``{report, start, end}`` per day-1 refresh cycle.
    refresh: "list[dict]" = field(default_factory=list)
    warmup_s: float = 0.0
    #: The read phase: one sample list per step, its bounds, and the
    #: gateway's ``/metrics`` right before and right after it.
    steps: "list[list[netclient.Sample]]" = field(default_factory=list)
    reads_start: float = 0.0
    reads_end: float = 0.0
    metrics_before: dict = field(default_factory=dict)
    metrics_after: dict = field(default_factory=dict)
    #: Wire answers compared with the in-process answer, and how many differed.
    verified: int = 0
    mismatches: int = 0
    #: One ``{reports, start, appended, end, n_events}`` per stream window,
    #: and the fetch of every new listing.
    applies: "list[dict]" = field(default_factory=list)
    listings: "list[netclient.Sample]" = field(default_factory=list)
    #: Requests outside the read steps (health, first answer, verification).
    extra_requests: "list[netclient.Sample]" = field(default_factory=list)


async def _rpc(gateway: GatewayChild, *command):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, lambda: gateway.rpc(*command))


def _metrics_of(sample: netclient.Sample) -> dict:
    if not sample.ok:
        raise RuntimeError(f"GET /metrics -> {sample.status}")
    return json.loads(sample.body)


async def _apply_window(gateway, client, inputs, index: int, served: Served) -> None:
    """One stream window: append + apply in the child, then fetch its listings."""
    applied = await _rpc(gateway, "window", index, inputs.windows[index])
    served.applies.append(applied)
    for item_id in inputs.new_listings[index]:
        served.listings.append(
            await netclient.get(client, f"/recommend?item_id={item_id}&k={workloads.K}")
        )


async def _stream(gateway, client, inputs, served: Served, period_s: float = 0.0) -> None:
    """All windows, back to back or one every ``period_s`` seconds."""
    start = now()
    for index in range(len(inputs.windows)):
        if period_s:
            await asyncio.sleep(max(0.0, start + index * period_s - now()))
        await _apply_window(gateway, client, inputs, index, served)


async def _verify(gateway, client, path: str, step: workloads.Step,
                  samples: list[netclient.Sample], served: Served) -> None:
    """Wire answers must equal ``result_to_payload`` of the in-process call."""
    if step.loop == "open":
        ok = [s for s in samples if s.ok]
        picks = ok[:: max(1, len(ok) // VERIFY_SAMPLES)][:VERIFY_SAMPLES]
        bodies = [step.bodies[s.index] for s in picks]
    else:
        # A closed-loop sample does not record which body it carried (each
        # caller cycles its own list), so a known set is sent once more.
        bodies = step.bodies[0][: max(1, VERIFY_SAMPLES // workloads.BATCH_QUERIES)]
        picks = []
        for body in bodies:
            at = now()
            picks.append(await client.request("POST", path, body, netclient.Sample(-1, at, at)))
        served.extra_requests += picks
    expected = await _rpc(gateway, "answers", path, bodies)
    for sample, want in zip(picks, expected):
        got = json.loads(sample.body) if sample.ok else {}
        pairs = (
            [(got, want)] if path == "/recommend"
            else list(zip(got.get("results", []), want["results"]))
        )
        for g, w in pairs:
            served.verified += 1
            if g.get("items") != w["items"] or g.get("scores") != w["scores"]:
                served.mismatches += 1


async def serve_day(
    gateway: GatewayChild, inputs: workloads.Inputs, tracer: Tracer,
    calibrator: hostspeed.Calibrator,
) -> Served:
    """First answer -> refresh -> warm-up -> reads -> stream, over the socket."""
    spec = inputs.spec
    served = Served()
    path = "/recommend" if spec.loop == "open" else "/recommend_batch"
    async with netclient.NetClient(HOST, gateway.ready["port"], connections=2) as client:
        health = await netclient.get(client, "/healthz")
        first = await netclient.get(client, f"/recommend?item_id=0&k={workloads.K}")
        served.extra_requests += [health, first]
        served.first_answer_at = first.done
        served.first_answer_ms = (first.done - first.due) * 1e3
        served.first_answer_speed = calibrator.sample()

        with tracer.span("refresh", op_id="refresh"):
            served.refresh = await _rpc(gateway, "refresh", inputs.day1, inputs.refresh_cycles)

        with tracer.span("warmup"):
            start = now()
            warm = inputs.warmup
            if spec.loop == "open":
                await netclient.open_loop(client, path, warm.bodies, warm.due, warm.duration_s)
            else:
                await netclient.closed_loop(client, path, inputs.steps[0].bodies, warm.duration_s)
            served.warmup_s = now() - start

        if spec.stream_during_reads:
            await _rpc(gateway, "stream_init", inputs.day1)
        served.metrics_before = _metrics_of(await netclient.get(client, "/metrics"))
        with tracer.span("reads", op_id="reads"):
            served.reads_start = now()
            writer = None
            if spec.stream_during_reads:
                period = inputs.steps[0].duration_s / len(inputs.windows)
                writer = asyncio.create_task(_stream(gateway, client, inputs, served, period))
            try:
                for step in inputs.steps:
                    if step.loop == "open":
                        samples = await netclient.open_loop(
                            client, path, step.bodies, step.due, step.duration_s
                        )
                    else:
                        samples = await netclient.closed_loop(
                            client, path, step.bodies, step.duration_s
                        )
                    served.steps.append(samples)
                if writer is not None:
                    await writer
            finally:
                if writer is not None:
                    writer.cancel()  # no-op once it has finished
            served.reads_end = now()
        served.metrics_after = _metrics_of(await netclient.get(client, "/metrics"))

        if not spec.stream_during_reads:
            await _verify(gateway, client, path, inputs.steps[0], served.steps[0], served)
            with tracer.span("stream", op_id="stream"):
                await _rpc(gateway, "stream_init", inputs.day1)
                await _stream(gateway, client, inputs, served)
    return served


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def serving_cpus() -> "tuple[int | None, int | None]":
    """``(load generator core, gateway core)``, or ``(None, None)``.

    With a core each, the generator and the gateway are pinned apart for
    the serving phases: unpinned, the scheduler migrates both between the
    two cores and identical runs spread 7 % on the read p50 and 37 % on
    the p95; pinned, 2 % and 18 %.  Training is left to the engines, which
    pin their own workers.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    allowed = sorted(os.sched_getaffinity(0))
    return (allowed[0], allowed[1]) if len(allowed) >= 2 else (None, None)


@contextmanager
def pinned_to(cpu: "int | None"):
    """Pin this process to ``cpu`` for the block (no-op for ``None``)."""
    if cpu is None:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(
    spec: workloads.WorkloadSpec,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool = False,
    import_s: float = 0.0,
) -> report.Result:
    """Run ``spec`` once and return its result (never raises on a failed check)."""
    result = report.Result(spec.name, seed, seconds, traced)
    result.host = report.host_context(seed)
    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    calibrator = hostspeed.Calibrator()
    setup_speed = [calibrator.sample()]

    generation_s = []
    for _ in range(SETUP_REPEATS):
        start = now()
        inputs = workloads.generate(spec, seed, seconds)
        generation_s.append(now() - start)
    result.input_digest = inputs.digest()

    # First-call costs (lazy imports, BLAS initialisation, the engine's
    # first fork) are paid here, before the clock starts, and charged to
    # set-up.
    start = now()
    warm_slice = BehaviorDataset(
        inputs.day0.items, inputs.day0.users, inputs.day0.sessions[:WARMUP_SESSIONS],
        validate=False,
    )
    train(spec, warm_slice, Tracer(), calibrator)
    warm_fit_s = now() - start
    setup_speed.append(calibrator.sample())

    generator_cpu, gateway_cpu = serving_cpus()
    result.host["cpu_affinity"] = {"generator": generator_cpu, "gateway": gateway_cpu}
    tracer = Tracer()
    if traced:
        tracer.install()
    gateway = None
    try:
        with tracer.span("day0", op_id="day0"):
            day0_start = now()
            with tracer.span("train"):
                trained = train(spec, inputs.day0, tracer, calibrator)
            train_config = replace(trained.config, epochs=1)
            with tracer.span("publish"):
                gateway = GatewayChild(
                    child_module.ChildConfig(
                        model=trained.model,
                        dataset=inputs.day0,
                        shards=spec.shards,
                        cache=spec.cache,
                        table_coverage=spec.table_coverage,
                        train_config=train_config,
                        traced=traced,
                        cpu=gateway_cpu,
                    )
                )
                gateway.wait_ready()
            with pinned_to(generator_cpu):
                served = asyncio.run(serve_day(gateway, inputs, tracer, calibrator))
        child_trace = gateway.rpc("spans") if traced else {"spans": [], "gate_waits": []}
    finally:
        if gateway is not None:
            gateway.close()
        tracer.uninstall()

    tracer.adopt(child_trace["spans"])
    _fill_end_to_end(
        result, inputs, trained, served, gateway,
        day0_start=day0_start,
        setup_work_s=statistics.median(generation_s) + import_s + warm_fit_s,
        setup_speed=setup_speed,
    )
    _check(result, inputs, trained, served, gateway, smoke, shm_before)
    if traced:
        _fill_per_layer(result, inputs, trained, served, tracer, child_trace, gateway)
        tracer.dump(report.OUT_DIR / f"trace-{spec.name}.json")
    result.host["loadavg_after"] = os.getloadavg()
    report.validate(result)
    return result


def _fill_end_to_end(
    result, inputs, trained, served, gateway, day0_start, setup_work_s, setup_speed
) -> None:
    """The end-to-end metrics; compute-bound ones in reference-host time.

    Each compute-bound duration is divided by the host-speed factor of the
    samples taken around it, on the core that did the work (see
    ``bench/hostspeed.py``); what was measured goes to ``result.raw``.
    """
    spec = inputs.spec
    e2e, raw, counts = result.end_to_end, result.raw, result.counts
    gated = served.steps[0]
    lat = latencies_ms(gated)
    p95, n_sub = windowed_p95(gated)
    reads = [s for step in served.steps for s in step if s.ok]
    queries = len(reads) * (workloads.BATCH_QUERIES if spec.loop == "closed" else 1)
    reads_wall = max(s.done for s in reads) - served.reads_start if reads else float("nan")
    applies = [(a["end"] - a["appended"], hostspeed.factor(a["speed"])) for a in served.applies]
    cycles = [(c["end"] - c["start"], hostspeed.factor(c["speed"])) for c in served.refresh]
    if spec.engine == "parallel":
        # Two workers fill both cores and the calibrator samples one: over
        # 40 runs the correction widened the spread of the 2-worker fit
        # from 5-9 % to 14-17 %, so day 0 is reported as measured.
        fit_factor = day0_factor = 1.0
    else:
        fit_factor = hostspeed.factor(trained.speed)
        day0_factor = hostspeed.factor(
            [*trained.speed, gateway.ready["speed"], served.first_answer_speed]
        )

    raw["setup_s"] = setup_work_s + served.warmup_s
    raw["train_pairs_per_s"] = trained.trainer.pairs_trained / trained.fit_s
    raw["nightly_s"] = served.first_answer_at - day0_start
    raw["refresh_s"] = statistics.median(wall for wall, _ in cycles)
    raw["stream_apply_s"] = statistics.median(wall for wall, _ in applies)

    # The read warm-up runs on a schedule, not on the CPU: it is not corrected.
    e2e["setup_s"] = setup_work_s / hostspeed.factor(setup_speed) + served.warmup_s
    e2e["train_pairs_per_s"] = raw["train_pairs_per_s"] * fit_factor
    e2e["nightly_s"] = raw["nightly_s"] / day0_factor
    e2e["refresh_s"] = statistics.median(wall / factor for wall, factor in cycles)
    e2e["hr10"] = _hr10(trained.model, inputs.test_sessions)
    e2e["lat_p50_ms"] = _median(lat)
    e2e["stream_apply_s"] = statistics.median(wall / factor for wall, factor in applies)
    e2e["peak_rss_mb"] = _rss_mb()
    counts["lat_p50_ms"] = len(lat)
    counts["stream_apply_s"] = len(applies)
    counts["refresh_s"] = len(cycles)
    counts["hr10"] = len(inputs.test_sessions)
    counts["train_pairs_per_s"] = int(trained.trainer.pairs_trained)
    counts["setup_s"] = SETUP_REPEATS

    # Tail latency and throughput: per-layer metrics of a traced run (their
    # run-to-run spread on a shared host is past any bound), always printed.
    result.extras["lat_p95_ms"] = p95
    result.extras["queries_per_s"] = queries / reads_wall
    counts["lat_p95_ms"] = n_sub
    counts["queries_per_s"] = queries
    speeds = [
        *setup_speed, *trained.speed, gateway.ready["speed"], served.first_answer_speed,
        *(x for c in served.refresh for x in c["speed"]),
        *(x for a in served.applies for x in a["speed"]),
    ]
    result.extras["host.speed_factor"] = hostspeed.factor(speeds)

    if len(spec.steps) > 1:  # the rate sweep: report every step, find the knee
        result.extras.update(_rate_steps(inputs, served))
    if spec.stream_during_reads:
        result.extras.update(_reads_vs_applies(served))


def _hr10(model: EmbeddingModel, test_sessions) -> float:
    index = SimilarityIndex(model, mode="directional")
    return evaluate_hitrate(index, test_sessions, ks=(10,)).hit_rates[10]


def _rate_steps(inputs, served) -> dict[str, float]:
    """Per-step latency of an open-loop sweep and the highest sustained rate."""
    extras: dict[str, float] = {}
    best = 0
    for step, samples in zip(inputs.steps, served.steps):
        p95, _ = windowed_p95(samples)
        drain = max(s.done for s in samples) - max(s.due for s in samples)
        extras[f"netclient.{step.name}.p50_ms"] = _median(latencies_ms(samples))
        extras[f"netclient.{step.name}.p95_ms"] = p95
        extras[f"netclient.{step.name}.drain_s"] = drain
        sustained = (
            all(s.ok for s in samples)
            and p95 <= RATE_P95_LIMIT_MS
            and drain <= RATE_DRAIN_LIMIT_S
        )
        if sustained:
            best = max(best, step.rate)
    extras["max_rate_ok"] = float(best)
    return extras


def _reads_vs_applies(served) -> dict[str, float]:
    """Read latency split by whether an apply was running when it was due."""
    spans = [(a["start"], a["end"]) for a in served.applies]
    during, outside = [], []
    for sample in served.steps[0]:
        if sample.ok:
            busy = any(lo <= sample.due <= hi for lo, hi in spans)
            (during if busy else outside).append((sample.done - sample.due) * 1e3)
    return {
        "netclient.p50_ms.during_apply": _median(during),
        "netclient.p50_ms.outside_apply": _median(outside),
    }


def _check(result, inputs, trained, served, gateway, smoke, shm_before) -> None:
    """Count attempted/failed operations and run the checks that gate the result."""
    spec = inputs.spec
    problems = result.problems
    requests = [s for step in served.steps for s in step] + served.listings + served.extra_requests
    reports = [r for a in served.applies for r in a["reports"]]
    windows_applied = sum(1 for r in reports if r["applied"])
    bad_listings = [
        s for s in served.listings
        if not s.ok or json.loads(s.body).get("tier") == "popularity"
    ]
    cycles = [c["report"] for c in served.refresh]
    promoted = sum(1 for c in cycles if c["promoted"])

    result.attempted = len(requests) + len(cycles) + len(inputs.windows) + served.verified
    result.failed = (
        sum(1 for s in requests if not s.ok)
        + (len(cycles) - promoted)
        + (len(inputs.windows) - windows_applied)
        + served.mismatches
        + sum(1 for s in bad_listings if s.ok)  # answered, but from the wrong tier
    )

    losses = trained.trainer.loss_history
    if not losses or not all(math.isfinite(x) for x in losses):
        problems["loss"] = f"training loss not finite: {losses}"
    if not smoke and result.end_to_end["hr10"] < HR10_FLOOR:
        problems["hr10"] = f"HR@10 {result.end_to_end['hr10']:.3f} below the {HR10_FLOOR} floor"
    if promoted != len(cycles):
        problems["refresh"] = f"refresh cycles not promoted: {cycles}"
    versions = [np.min(c["versions"]) for c in cycles if c["promoted"]]
    if versions != list(range(1, len(versions) + 1)):
        problems["store_version"] = f"store version did not advance by one per cycle: {versions}"
    if served.mismatches:
        problems["wire_identity"] = (
            f"{served.mismatches} of {served.verified} wire answers differ from the"
            " in-process answer on the same bundle"
        )
    if not spec.stream_during_reads and served.verified == 0:
        problems["wire_identity"] = "no wire answer could be compared"
    if windows_applied != len(inputs.windows):
        problems["stream_windows"] = f"{windows_applied} of {len(inputs.windows)} windows applied"
    if any(r["quarantined"] for r in reports):
        problems["stream_quarantine"] = "a window was quarantined"
    if bad_listings:
        problems["new_listings"] = (
            f"{len(bad_listings)} new listings not served from a trained tier"
        )
    if result.failed:
        problems["failed"] = f"{result.failed} of {result.attempted} operations failed"

    # Hygiene: nothing the run started may outlive it.
    if gateway.exitcode != 0:
        problems["child_exit"] = f"gateway child exit code {gateway.exitcode}"
    survivors = multiprocessing.active_children()
    if survivors:
        problems["child_survivors"] = f"child processes still alive: {survivors}"
    if os.path.isdir("/dev/shm"):
        leaked = set(os.listdir("/dev/shm")) - shm_before
        if leaked:
            problems["shm_leak"] = f"/dev/shm segments left behind: {sorted(leaked)}"


def _fill_per_layer(result, inputs, trained, served, tracer, child_trace, gateway) -> None:
    spec = inputs.spec
    layer = result.per_layer

    def per_call(name: str, scope: str = "refresh") -> float:
        """Median duration of the ``name`` spans recorded inside ``scope``."""
        return _median(
            s["end"] - s["start"] for s in tracer.finished()
            if s["name"] == name and s["op_id"] == scope
        )

    # -- day 0: training ---------------------------------------------------
    layer["enrichment.build_s"] = sum(tracer.durations("enrich"))
    layer["enrichment.tokens"] = float(trained.corpus.n_tokens)
    # Visible only where the harness can see it: the Hogwild engine
    # materializes pairs inside its forked workers.
    layer["sampling.materialize_pairs_s"] = tracer.self_times().get("sampling.materialize_pairs", 0.0)
    layer["sampling.pairs"] = float(trained.trainer.pairs_trained)
    layer["sgns.fit_s"] = trained.fit_s
    layer["sgns.pairs_per_s"] = result.raw["train_pairs_per_s"]
    layer["sgns.final_loss"] = float(trained.trainer.loss_history[-1])

    # -- one full build and one warm start: those of the day-1 refresh -------
    layer["similarity.index_build_s"] = per_call("similarity.index_build")
    layer["ann.build_s"] = per_call("ann.build")
    layer["candidates.build_s"] = per_call("candidates.build")
    layer["store.build_bundle_s"] = per_call(
        "sharding.build_shard_bundle" if spec.shards else "store.build_bundle"
    )
    layer["store.swap_us"] = _median(tracer.durations("store.swap")) * 1e6
    layer["incremental.update_s"] = per_call("incremental.update")
    layer["incremental.drift"] = _median(
        r["drift"] for a in served.applies for r in a["reports"] if r["drift"] is not None
    )
    for phase in served.refresh[0]["report"]["phase_seconds"]:
        layer[f"refresh.phase.{phase}_s"] = statistics.median(
            c["report"]["phase_seconds"][phase] for c in served.refresh
        )
    ready = gateway.ready
    layer["gateway.start_s"] = (
        (ready["t_entered"] - gateway.spawned_at) + (ready["t_listening"] - ready["t_built"])
    )
    layer["gateway.first_answer_ms"] = served.first_answer_ms

    # Stage accounting: self time of every working (not waiting) span of
    # day 0 and the refresh, plus the child's start-up, against the two
    # end-to-end times they make up.
    working = tracer.self_times(
        lambda s: s["op_id"] in ("day0", "publish", "refresh")
        and s["name"] not in WAITING_SPANS
    )
    staged = sum(working.values()) + layer["gateway.start_s"]
    refresh_wall = sum(c["end"] - c["start"] for c in served.refresh)
    layer["trace.stage_sum_share"] = staged / (result.raw["nightly_s"] + refresh_wall)
    timed_wall = served.reads_end - tracer.finished()[0]["start"]
    layer["trace_overhead_pct"] = 100.0 * len(tracer.spans) * span_cost_s() / timed_wall

    # -- the read path ---------------------------------------------------
    for name in ("lat_p95_ms", "queries_per_s", "host.speed_factor"):
        layer[name] = result.extras.pop(name)
    layer.update(_read_path_layers(served, tracer))

    # -- the stream ------------------------------------------------------
    applies = served.applies
    reports = [r for a in applies for r in a["reports"]]
    apply_s = [r["apply_s"] for r in reports if r["applied"]]
    layer["events.extend_us_per_event"] = statistics.median(
        (a["appended"] - a["start"]) / a["n_events"] * 1e6 for a in applies
    )
    layer["window.next_window_us"] = _median(tracer.durations("window.next_window")) * 1e6
    layer["applier.apply_s.p50"] = statistics.median(apply_s)
    layer["applier.apply_s.max"] = max(apply_s)
    layer["applier.events_per_s"] = sum(r["n_events"] for r in reports) / sum(apply_s)
    layer["applier.quarantined"] = float(sum(1 for r in reports if r["quarantined"]))
    layer["gateway.swap_gate_wait_ms"] = _median(child_trace["gate_waits"]) * 1e3

    # -- fixed probes, the same on every workload --------------------------
    layer.update(probes.kernels(trained))
    layer.update(probes.engines(trained))
    layer.update(probes.retrieval(spec, trained, inputs))


def _read_path_layers(served, tracer) -> dict[str, float]:
    layer: dict[str, float] = {}
    samples = [s for step in served.steps for s in step]
    ok = [s for s in samples if s.ok]
    gated = [s for s in served.steps[0] if s.ok]
    late = [(s.fired - s.due) * 1e3 for s in samples]
    rtt = [(s.done - s.sent) * 1e3 for s in gated]
    layer["netclient.late_p99_ms"] = _quantile(late, 0.99)
    layer["netclient.queue_wait_p50_ms"] = statistics.median((s.sent - s.due) * 1e3 for s in gated)
    layer["netclient.rtt_p50_ms"] = statistics.median(rtt)
    layer["netclient.p99_ms"] = _quantile([(s.done - s.due) * 1e3 for s in ok], 0.99)

    before, after = served.metrics_before, served.metrics_after

    def delta(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    calls = [
        s for s in tracer.finished()
        if s["name"] == "service.call" and served.reads_start <= s["start"] <= served.reads_end
    ]
    call_s = [s["end"] - s["start"] for s in calls]
    server_p50_ms = after["tiers"]["gateway"]["p50"] * 1e3
    call_p50_ms = statistics.median(call_s) * 1e3 if call_s else float("nan")
    layer["gateway.server_p50_ms"] = server_p50_ms
    layer["gateway.coalesce_wait_p50_ms"] = server_p50_ms - call_p50_ms
    layer["gateway.wire_overhead_p50_ms"] = layer["netclient.rtt_p50_ms"] - server_p50_ms
    batches = after["counters"].get("gateway_coalesced_batches", 0)
    layer["gateway.batch_mean"] = (
        after["counters"].get("gateway_coalesced_requests", 0) / batches if batches else float("nan")
    )
    layer["gateway.shed"] = float(after["counters"].get("gateway_shed", 0))
    layer["service.call_p50_us"] = call_p50_ms * 1e3
    layer["service.busy_share"] = sum(call_s) / (served.reads_end - served.reads_start)
    tier_counts = {
        tier: after["tiers"].get(tier, {}).get("count", 0.0)
        - before["tiers"].get(tier, {}).get("count", 0.0)
        for tier in ("cache", "table", "ann", "cold_item", "cold_user", "popularity")
    }
    answered = sum(tier_counts.values()) or 1.0
    for tier, count in tier_counts.items():
        layer[f"service.tier_share.{tier}"] = count / answered
    lookups = delta("cache_hit") + delta("cache_miss")
    layer["cache.hit_rate"] = delta("cache_hit") / lookups if lookups else 0.0
    return layer
