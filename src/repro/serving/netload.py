"""Distributed network load generation against the serving gateway.

:mod:`repro.serving.loadgen` replays requests in-process — useful for
isolating service compute, blind to everything the network adds.  This
module drives a live :class:`~repro.serving.gateway.RecommendGateway`
over real sockets the way production traffic would:

- **open-loop arrivals** — request times are drawn from a Poisson
  process at the offered rate *before* the run and honored regardless of
  how fast responses come back.  Unlike closed-loop replay (send, wait,
  send), an open loop keeps offering load when the server slows down, so
  queueing delay and load shedding actually show up in the numbers
  (the coordinated-omission trap);
- **multi-process clients** — the offered rate is split across worker
  processes (fork), each running its own event loop over a pool of
  keep-alive connections, so the load generator itself does not
  bottleneck on one GIL;
- **the same traffic shape** — request payloads come from
  :func:`~repro.serving.loadgen.synth_requests`, so warm/cold/adversarial
  mixes are expressed with the same :class:`~repro.serving.loadgen.LoadMix`
  as the in-process replay, and reports quote the same
  ``latency_s: {p50, p95, p99}`` shape.

The report counts three outcomes separately: ``ok`` (200), ``shed``
(429 — the gateway's backpressure doing its job) and ``errors``
(anything else, including transport failures).  A healthy overload run
has a high shed rate and a zero error rate.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.data.schema import BehaviorDataset
from repro.serving.gateway import request_to_payload
from repro.serving.loadgen import LoadMix, latency_percentiles, synth_requests
from repro.utils import ensure_rng, get_logger, require, require_positive

logger = get_logger("serving.netload")


@dataclass
class NetLoadConfig:
    """Knobs of one network load run.

    Attributes
    ----------
    host, port:
        Where the gateway listens.
    n_requests:
        Total requests across all worker processes.
    rate:
        Total offered arrival rate (requests/second), split evenly
        across processes.  The loadgen is open-loop: arrivals fire on
        schedule even when earlier responses are still outstanding.
    n_processes:
        Client worker processes (forked; falls back to in-process
        threads where fork is unavailable).
    connections:
        Keep-alive connections per process.  Arrivals beyond the free
        connections queue client-side — that wait is *included* in the
        reported latency, as an open-loop measurement must.
    k:
        Candidates requested per call.
    timeout_s:
        Per-request client timeout (a timeout counts as an error).
    """

    host: str = "127.0.0.1"
    port: int = 8460
    n_requests: int = 1000
    rate: float = 500.0
    n_processes: int = 2
    connections: int = 8
    k: int = 10
    timeout_s: float = 15.0

    def validate(self) -> None:
        require_positive(self.n_requests, "n_requests")
        require_positive(self.rate, "rate")
        require_positive(self.n_processes, "n_processes")
        require_positive(self.connections, "connections")
        require_positive(self.k, "k")
        require_positive(self.timeout_s, "timeout_s")
        require(0 < self.port <= 65535, "port must be in (0, 65535]")


# ----------------------------------------------------------------------
# blocking control-plane client (healthz / metrics)
# ----------------------------------------------------------------------


def fetch_json(host: str, port: int, path: str, timeout_s: float = 5.0) -> dict:
    """Blocking GET of a gateway JSON endpoint (healthz / metrics)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        require(
            response.status == 200,
            f"GET {path} -> {response.status}: {body[:200]!r}",
        )
        return json.loads(body)
    finally:
        conn.close()


def wait_for_gateway(
    host: str, port: int, timeout_s: float = 15.0, interval_s: float = 0.05
) -> dict:
    """Poll ``/healthz`` until the gateway answers; returns its payload."""
    deadline = time.monotonic() + timeout_s
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        try:
            return fetch_json(host, port, "/healthz", timeout_s=2.0)
        except Exception as exc:  # noqa: BLE001 - keep polling until deadline
            last_error = exc
            time.sleep(interval_s)
    raise TimeoutError(
        f"gateway at {host}:{port} not healthy after {timeout_s}s"
    ) from last_error


# ----------------------------------------------------------------------
# the async worker (runs in a forked process)
# ----------------------------------------------------------------------


async def _open_connection(host: str, port: int):
    return await asyncio.open_connection(host, port)


async def _http_post(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    path: str,
    payload: dict,
) -> tuple[int, bytes]:
    """One keep-alive POST on an open connection; returns (status, body)."""
    body = json.dumps(payload).encode()
    writer.write(
        (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: gateway\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n"
            "\r\n"
        ).encode("latin-1")
        + body
    )
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    parts = status_line.decode("latin-1").split(None, 2)
    status = int(parts[1])
    length = 0
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    response_body = await reader.readexactly(length) if length else b""
    return status, response_body


async def _drive(
    host: str,
    port: int,
    payloads: list[dict],
    arrivals: list[float],
    connections: int,
    timeout_s: float,
) -> dict:
    """Fire ``payloads`` at their scheduled open-loop ``arrivals``."""
    pool: asyncio.Queue = asyncio.Queue()
    n_connections = min(connections, len(payloads))
    for _ in range(n_connections):
        pool.put_nowait(await _open_connection(host, port))

    ok_latencies: list[float] = []
    lateness: list[float] = []
    shed = 0
    errors = 0
    start = time.perf_counter()

    async def fire(payload: dict, due: float) -> None:
        nonlocal shed, errors
        # The clock starts at the *scheduled* arrival: a late wake-up and
        # the wait for a free connection are both part of the latency the
        # client experiences.
        arrived = start + due
        delay = arrived - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(max(0.0, time.perf_counter() - arrived))
        conn = await pool.get()
        try:
            status, _body = await asyncio.wait_for(
                _http_post(*conn, "/recommend", payload), timeout_s
            )
        except Exception:  # noqa: BLE001 - a dead request, not a dead run
            errors += 1
            conn[1].close()
            try:
                pool.put_nowait(await _open_connection(host, port))
            except Exception:  # noqa: BLE001 - reopen best-effort
                pool.put_nowait(conn)  # keep the pool size stable
            return
        latency = time.perf_counter() - arrived
        pool.put_nowait(conn)
        if status == 200:
            ok_latencies.append(latency)
        elif status == 429:
            shed += 1
        else:
            errors += 1

    tasks = [
        asyncio.create_task(fire(payload, due))
        for payload, due in zip(payloads, arrivals)
    ]
    await asyncio.gather(*tasks)
    duration = time.perf_counter() - start
    while not pool.empty():
        _reader, writer = pool.get_nowait()
        writer.close()
    return {
        "ok_latencies": ok_latencies,
        "lateness": lateness,
        "shed": shed,
        "errors": errors,
        "n": len(payloads),
        "duration_s": duration,
    }


def _worker_entry(args: tuple) -> dict:
    """Top-level so it pickles under both fork and spawn."""
    host, port, payloads, arrivals, connections, timeout_s = args
    return asyncio.run(
        _drive(host, port, payloads, arrivals, connections, timeout_s)
    )


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def run_netload(
    dataset: BehaviorDataset,
    config: NetLoadConfig,
    mix: LoadMix | None = None,
    zipf_a: float = 1.2,
    seed: "int | np.random.Generator | None" = 0,
    payloads: "list[dict] | None" = None,
    wait_timeout_s: float = 15.0,
) -> dict:
    """Drive the gateway over real sockets; return the JSON report.

    Synthesizes ``config.n_requests`` payloads from ``dataset`` (or
    replays the given ``payloads``), waits for the gateway's
    ``/healthz``, splits the stream across ``config.n_processes`` forked
    workers with Poisson arrival schedules, and merges their outcomes.
    The final ``/metrics`` snapshot is embedded under ``"gateway"`` so a
    report carries the server-side view (coalesced batches, shed
    counters) next to the client-side one.
    """
    config.validate()
    if payloads is None:
        requests = synth_requests(
            dataset, config.n_requests, mix=mix, zipf_a=zipf_a, seed=seed
        )
        payloads = [
            {**request_to_payload(request), "k": config.k}
            for request in requests
        ]
    require(len(payloads) > 0, "need at least one payload")

    wait_for_gateway(config.host, config.port, timeout_s=wait_timeout_s)

    rng = ensure_rng(seed)
    n_workers = min(config.n_processes, len(payloads))
    chunks = [list(payloads[start::n_workers]) for start in range(n_workers)]
    worker_rate = config.rate / n_workers
    jobs = []
    for chunk in chunks:
        gaps = rng.exponential(1.0 / worker_rate, size=len(chunk))
        arrivals = np.cumsum(gaps).tolist()
        jobs.append(
            (
                config.host,
                config.port,
                chunk,
                arrivals,
                config.connections,
                config.timeout_s,
            )
        )

    outcomes = _run_workers(jobs)

    ok_latencies = np.concatenate(
        [np.asarray(o["ok_latencies"], dtype=np.float64) for o in outcomes]
    ) if outcomes else np.zeros(0)
    lateness = np.concatenate([o["lateness"] for o in outcomes])
    ok = int(sum(len(o["ok_latencies"]) for o in outcomes))
    shed = int(sum(o["shed"] for o in outcomes))
    errors = int(sum(o["errors"] for o in outcomes))
    total = int(sum(o["n"] for o in outcomes))
    duration = max((o["duration_s"] for o in outcomes), default=0.0)

    report = {
        "n_requests": total,
        "ok": ok,
        "shed": shed,
        "errors": errors,
        "duration_s": duration,
        "offered_rate": config.rate,
        "achieved_rate": total / duration if duration > 0 else 0.0,
        "qps": ok / duration if duration > 0 else 0.0,
        "shed_rate": shed / total if total else 0.0,
        "error_rate": errors / total if total else 0.0,
        "latency_s": latency_percentiles(ok_latencies),
        # How late the generator itself fired (already inside latency_s).
        "late_p99_ms": float(np.quantile(lateness, 0.99)) * 1e3,
        "processes": n_workers,
        "connections": config.connections,
        "k": config.k,
    }
    try:
        report["gateway"] = fetch_json(config.host, config.port, "/metrics")
    except Exception as exc:  # noqa: BLE001 - report survives a dead server
        logger.warning("could not fetch final /metrics: %s", exc)
        report["gateway"] = None
    return report


def _run_workers(jobs: list[tuple]) -> list[dict]:
    """Run one ``_worker_entry`` per job, forked when the platform allows.

    One job runs inline (no process overhead for smoke tests); multiple
    jobs prefer forked processes so client-side CPU scales, falling back
    to threads where fork is unavailable — each worker is asyncio-bound,
    so threads still overlap socket waits.
    """
    if len(jobs) == 1:
        return [_worker_entry(jobs[0])]
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=len(jobs), mp_context=context
        ) as executor:
            return list(executor.map(_worker_entry, jobs))
    logger.warning("fork unavailable; running netload workers as threads")
    with ThreadPoolExecutor(max_workers=len(jobs)) as executor:
        return list(executor.map(_worker_entry, jobs))


__all__ = [
    "NetLoadConfig",
    "fetch_json",
    "run_netload",
    "wait_for_gateway",
]
