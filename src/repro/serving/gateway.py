"""The network serving gateway: HTTP front end with request coalescing.

Everything below this module answers requests in-process; this is the
layer where they cross a socket.  A :class:`RecommendGateway` puts a
dependency-free asyncio HTTP/1.1 server in front of a
:class:`~repro.serving.sharding.MatchingService` (over one store or
over HBGP shards — the same class) and adds the three things an online matcher needs at the edge:

- **request coalescing** — concurrent single ``/recommend`` calls are
  queued and, whenever an executor slot is free, drained into one
  ``recommend_batch`` micro-batch (up to ``max_batch`` requests).  There
  is no timer: an idle gateway serves a lone request at once as a batch
  of one, a busy one batches whatever queued while its slots were
  occupied, so network concurrency turns into the one-GEMM-per-batch
  path the service already has.  Answers are identical to per-request
  ``recommend`` calls (same ids, same scores) — the batch is an
  execution strategy, not a semantic change;
- **backpressure and load shedding** — once the coalescing queue passes
  ``queue_high_water`` the gateway answers ``429`` immediately instead
  of queueing (a shed counter tracks it), and a queued request that
  exceeds ``latency_budget_ms`` before dispatch is shed rather than
  served late.  Requests leave the queue only for a free slot, so both
  checks see everything that is waiting.  Under overload the tail is
  bounded and the queue cannot collapse;
- **graceful swap coordination** — :meth:`RecommendGateway.swap_gate`
  runs a promotion (e.g. the :class:`~repro.serving.refresh.RefreshDaemon`
  pointer flip, via its ``promote_gate`` hook) only when no coalesced
  batch is in flight; arrivals keep queueing meanwhile, so a hot swap
  never drops or tears an in-flight request.

Endpoints (all JSON):

- ``GET/POST /recommend`` — one request (coalesced);
- ``POST /recommend_batch`` — a caller-assembled batch (executed
  directly);
- ``GET /healthz`` — liveness + live store version;
- ``GET /metrics`` — the full ``service.snapshot()`` plus gateway
  queue/shed/coalescing state, strictly JSON-serializable.

The HTTP layer is deliberately minimal (request line + headers +
``Content-Length`` body, keep-alive) — enough for the benchmark
harness's load generator, :func:`fetch_json` and curl, with zero
dependencies beyond the standard library.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, TypeVar
from urllib.parse import parse_qs, urlsplit

from repro.serving.metrics import to_jsonable
from repro.serving.service import MatchRequest, MatchResult
from repro.utils import get_logger, require, require_positive

logger = get_logger("serving.gateway")

T = TypeVar("T")

#: Upper bound on request bodies; anything larger draws a 413.
MAX_BODY_BYTES = 4 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------


def request_to_payload(request: MatchRequest) -> dict:
    """A :class:`MatchRequest` as its JSON body (``None`` fields omitted)."""
    payload: dict = {}
    if request.item_id is not None:
        payload["item_id"] = int(request.item_id)
    if request.si_values is not None:
        payload["si_values"] = {
            str(name): int(value) for name, value in request.si_values.items()
        }
    for attr in ("gender", "age_bucket", "purchase_power"):
        value = getattr(request, attr)
        if value is not None:
            payload[attr] = str(value)
    return payload


def request_from_payload(payload: dict) -> MatchRequest:
    """Parse one request body; raises ``ValueError`` on junk."""
    require(isinstance(payload, dict), "request payload must be a JSON object")
    known = {"item_id", "si_values", "gender", "age_bucket", "purchase_power", "k"}
    unknown = set(payload) - known
    require(not unknown, f"unknown request fields: {sorted(unknown)}")
    item_id = payload.get("item_id")
    si_values = payload.get("si_values")
    if si_values is not None:
        require(isinstance(si_values, dict), "si_values must be an object")
        si_values = {str(name): int(value) for name, value in si_values.items()}
    return MatchRequest(
        item_id=int(item_id) if item_id is not None else None,
        si_values=si_values,
        gender=payload.get("gender"),
        age_bucket=payload.get("age_bucket"),
        purchase_power=payload.get("purchase_power"),
    )


def result_to_payload(result: MatchResult) -> dict:
    """A :class:`MatchResult` as its JSON response body."""
    return {
        "items": result.items.tolist(),
        "scores": result.scores.tolist(),
        "tier": result.tier,
        "version": to_jsonable(result.version),
        "cached": bool(result.cached),
        "latency_s": float(result.latency),
    }


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@dataclass
class GatewayConfig:
    """Edge knobs of the network gateway.

    Attributes
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (tests and
        benchmarks read the bound port back from the gateway).
    max_batch:
        Coalescing cap: a free executor slot takes at most this many
        queued requests as one micro-batch.
    queue_high_water:
        Admission control: new ``/recommend`` arrivals are shed with 429
        while this many requests are waiting for a slot.
    latency_budget_ms:
        A queued request older than this at dispatch time is shed (429)
        instead of served hopelessly late; ``None`` disables the check.
    executor_threads:
        Worker threads executing micro-batches against the (numpy,
        GIL-releasing) service, and the number of coalesced batches in
        flight at once (the coalescer's slots).
    default_k:
        ``k`` when a request does not name one.
    """

    host: str = "127.0.0.1"
    port: int = 8460
    max_batch: int = 32
    queue_high_water: int = 512
    latency_budget_ms: float | None = 250.0
    executor_threads: int = 2
    default_k: int = 10

    def validate(self) -> None:
        require_positive(self.max_batch, "max_batch")
        require_positive(self.queue_high_water, "queue_high_water")
        if self.latency_budget_ms is not None:
            require_positive(self.latency_budget_ms, "latency_budget_ms")
        require_positive(self.executor_threads, "executor_threads")
        require_positive(self.default_k, "default_k")
        require(0 <= self.port <= 65535, "port must be in [0, 65535]")


@dataclass
class _Pending:
    """One queued single request waiting for its micro-batch."""

    request: MatchRequest
    k: int
    future: asyncio.Future
    enqueued_at: float = field(default_factory=time.perf_counter)


class _SwapGate:
    """Writer-priority shared/exclusive lock for swap coordination.

    Micro-batches hold the gate shared while they run against the
    service; a promotion takes it exclusive.  Writers get priority so a
    pending swap is never starved by a steady request stream — new
    batches wait (arrivals keep queueing upstream), in-flight batches
    finish, the swap flips its pointers, and traffic resumes.  All of it
    is thread-based because batches execute on executor threads and the
    refresh daemon promotes from its own thread.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active = 0
        self._writers = 0

    def __enter__(self) -> "_SwapGate":
        with self._cond:
            while self._writers:
                self._cond.wait()
            self._active += 1
        return self

    def __exit__(self, *_exc) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def exclusive(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` with no shared holder active."""
        with self._cond:
            self._writers += 1
            try:
                while self._active:
                    self._cond.wait()
                return fn()
            finally:
                self._writers -= 1
                self._cond.notify_all()


# ----------------------------------------------------------------------
# the gateway
# ----------------------------------------------------------------------


class RecommendGateway:
    """Asyncio HTTP front end + request coalescer over a matching service.

    Parameters
    ----------
    service:
        A :class:`~repro.serving.sharding.MatchingService`; the
        gateway records its edge counters (``gateway_*``) and end-to-end
        latency histogram on the service's own
        :class:`~repro.serving.metrics.ServingMetrics`, so one
        ``/metrics`` response shows the whole stack.
    config:
        Edge knobs; see :class:`GatewayConfig`.

    Run it either inside an existing event loop (``await start()`` /
    ``await stop()``) or via :class:`GatewayThread`, which owns a loop on
    a background thread (the shape tests, benchmarks and the CLI use).
    """

    def __init__(self, service, config: GatewayConfig | None = None) -> None:
        self._service = service
        self._config = config or GatewayConfig()
        self._config.validate()
        self._metrics = service.metrics
        self._queue: asyncio.Queue[_Pending] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._batcher: asyncio.Task | None = None
        self._batches: set[asyncio.Task] = set()
        self._executor: ThreadPoolExecutor | None = None
        self._gate = _SwapGate()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started_at = time.monotonic()

    @property
    def service(self):
        return self._service

    @property
    def config(self) -> GatewayConfig:
        return self._config

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        require(self._server is not None, "gateway is not started")
        return self._server.sockets[0].getsockname()[1]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listen socket and start the coalescer."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=self._config.executor_threads,
            thread_name_prefix="gateway-batch",
        )
        self._batcher = asyncio.create_task(self._batch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self._config.host, self._config.port
        )
        self._started_at = time.monotonic()
        logger.info(
            "gateway listening on %s:%d (max_batch=%d, slots=%d, high_water=%d)",
            self._config.host,
            self.port,
            self._config.max_batch,
            self._config.executor_threads,
            self._config.queue_high_water,
        )

    async def stop(self) -> None:
        """Stop accepting, fail queued requests with 503, drain batches."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        while self._queue is not None and not self._queue.empty():
            pending = self._queue.get_nowait()
            if not pending.future.done():
                pending.future.set_exception(
                    _HttpError(503, "gateway shutting down")
                )
        if self._batches:
            await asyncio.gather(*self._batches, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def serve_forever(self) -> None:
        """Run until cancelled (the blocking CLI path)."""
        require(self._server is not None, "gateway is not started")
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # swap coordination
    # ------------------------------------------------------------------

    def swap_gate(self, swap: Callable[[], T]) -> T:
        """Run ``swap`` with no micro-batch in flight.

        In-flight batches complete first (their bundle snapshots stay
        coherent), new batches wait until the swap returns, and queued
        requests are *kept*, not dropped — the coalescer simply resumes
        against the new generation.  Hand this to
        :class:`~repro.serving.refresh.RefreshDaemon` as its
        ``promote_gate`` so nightly promotions synchronize with live
        traffic for free.  Callable from any thread.
        """
        self._metrics.incr("gateway_swap_gates")
        return self._gate.exclusive(swap)

    # ------------------------------------------------------------------
    # the coalescer
    # ------------------------------------------------------------------

    async def _batch_loop(self) -> None:
        """Hand whatever is queued to an executor slot as soon as one is free.

        Work-conserving: no request waits while a slot idles, and batch
        size is whatever arrived while every slot was busy.
        """
        assert self._queue is not None
        slots = asyncio.Semaphore(self._config.executor_threads)

        def finished(task: asyncio.Task) -> None:
            self._batches.discard(task)
            slots.release()

        while True:
            await slots.acquire()
            batch = [await self._queue.get()]
            while len(batch) < self._config.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            task = asyncio.create_task(self._run_batch(batch))
            self._batches.add(task)
            task.add_done_callback(finished)

    async def _run_batch(self, batch: list[_Pending]) -> None:
        """Execute one micro-batch on the executor; settle its futures."""
        live: list[_Pending] = []
        budget = self._config.latency_budget_ms
        now = time.perf_counter()
        for pending in batch:
            if pending.future.done():
                continue  # client went away
            if budget is not None and (now - pending.enqueued_at) * 1e3 > budget:
                self._metrics.incr("gateway_shed")
                self._metrics.incr("gateway_shed_expired")
                pending.future.set_exception(
                    _HttpError(
                        429, f"queued past the {budget:g}ms latency budget"
                    )
                )
                continue
            live.append(pending)
        if not live:
            return
        self._metrics.incr("gateway_coalesced_batches")
        self._metrics.incr("gateway_coalesced_requests", len(live))
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._executor, self._execute_batch, live
            )
        except Exception as exc:  # noqa: BLE001 - settle every waiter
            logger.exception("micro-batch failed")
            self._metrics.incr("gateway_errors")
            for pending in live:
                if not pending.future.done():
                    pending.future.set_exception(
                        _HttpError(500, f"{type(exc).__name__}: {exc}")
                    )
            return
        for pending, result in zip(live, results):
            if not pending.future.done():
                pending.future.set_result(result)

    def _execute_batch(self, batch: list[_Pending]) -> list[MatchResult]:
        """Thread-side: one ``recommend_batch`` call per distinct ``k``.

        Runs under the swap gate (shared side) so a promotion never
        overlaps a batch.  Batches are grouped by ``k`` — mixed-``k``
        traffic still coalesces, it just fans into one service call per
        ``k`` value.
        """
        with self._gate:
            return self._grouped_recommend(
                [pending.request for pending in batch],
                [pending.k for pending in batch],
            )

    def _grouped_recommend(
        self, requests: "list[MatchRequest]", ks: "list[int]"
    ) -> "list[MatchResult]":
        """One ``recommend_batch`` call per distinct ``k``, order preserved."""
        by_k: dict[int, list[int]] = {}
        for row, k in enumerate(ks):
            by_k.setdefault(k, []).append(row)
        results: list[MatchResult | None] = [None] * len(requests)
        for k, rows in by_k.items():
            answers = self._service.recommend_batch(
                [requests[row] for row in rows], k
            )
            for row, answer in zip(rows, answers):
                results[row] = answer
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await _read_request(reader)
                except _HttpError as exc:
                    writer.write(
                        _encode_response(
                            exc.status, {"error": exc.message}, False
                        )
                    )
                    await writer.drain()
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "keep-alive") != "close"
                try:
                    status, payload = await self._route(method, path, body)
                except _HttpError as exc:
                    status, payload = exc.status, {"error": exc.message}
                except Exception as exc:  # noqa: BLE001 - edge must answer
                    logger.exception("request handling failed")
                    self._metrics.incr("gateway_errors")
                    status = 500
                    payload = {"error": f"{type(exc).__name__}: {exc}"}
                writer.write(_encode_response(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict]:
        split = urlsplit(target)
        path = split.path
        if path == "/healthz":
            self._require_method(method, "GET")
            return 200, {
                "status": "ok",
                "store_version": to_jsonable(self._service.store.version),
                "uptime_s": time.monotonic() - self._started_at,
            }
        if path == "/metrics":
            self._require_method(method, "GET")
            return 200, self.metrics_snapshot()
        if path == "/recommend":
            if method == "GET":
                payload = _payload_from_query(split.query)
            else:
                self._require_method(method, "POST")
                payload = _parse_json(body)
            return await self._recommend(payload)
        if path == "/recommend_batch":
            self._require_method(method, "POST")
            return await self._recommend_batch(_parse_json(body))
        raise _HttpError(404, f"no such endpoint: {path}")

    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    async def _recommend(self, payload: dict) -> tuple[int, dict]:
        """One coalesced single request."""
        assert self._queue is not None and self._loop is not None
        self._metrics.incr("gateway_requests")
        try:
            request = request_from_payload(payload)
            k = _parse_k(payload, self._config.default_k)
        except (ValueError, TypeError) as exc:
            raise _HttpError(400, str(exc)) from exc
        if self._queue.qsize() >= self._config.queue_high_water:
            self._metrics.incr("gateway_shed")
            self._metrics.incr("gateway_shed_queue_full")
            raise _HttpError(
                429,
                f"coalescing queue past high water"
                f" ({self._config.queue_high_water})",
            )
        start = time.perf_counter()
        future: asyncio.Future = self._loop.create_future()
        self._queue.put_nowait(_Pending(request, k, future))
        result = await future
        self._metrics.observe("gateway", time.perf_counter() - start)
        return 200, result_to_payload(result)

    async def _recommend_batch(self, payload: dict) -> tuple[int, dict]:
        """A caller-assembled batch: executed directly, not re-coalesced."""
        assert self._loop is not None
        try:
            require(isinstance(payload, dict), "batch payload must be an object")
            raw = payload.get("requests")
            require(isinstance(raw, list) and raw, "requests must be a non-empty list")
            requests = [request_from_payload(entry) for entry in raw]
            # Per-entry ``k`` wins; the batch-level ``k`` (then the
            # configured default) backs any entry that omits it.
            batch_k = _parse_k(payload, self._config.default_k)
            ks = [_parse_k(entry, batch_k) for entry in raw]
        except (ValueError, TypeError) as exc:
            raise _HttpError(400, str(exc)) from exc
        self._metrics.incr("gateway_requests", len(requests))
        self._metrics.incr("gateway_batch_requests", len(requests))
        start = time.perf_counter()

        def execute() -> list[MatchResult]:
            with self._gate:
                return self._grouped_recommend(requests, ks)

        results = await self._loop.run_in_executor(self._executor, execute)
        elapsed = time.perf_counter() - start
        self._metrics.observe("gateway", elapsed)
        return 200, {
            "results": [result_to_payload(result) for result in results],
            "latency_s": elapsed,
        }

    def metrics_snapshot(self) -> dict:
        """``service.snapshot()`` plus live gateway state, JSON-strict."""
        snap = self._service.snapshot()
        snap["gateway"] = {
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "inflight_batches": len(self._batches),
            "max_batch": self._config.max_batch,
            "queue_high_water": self._config.queue_high_water,
            "latency_budget_ms": self._config.latency_budget_ms,
            "uptime_s": time.monotonic() - self._started_at,
        }
        return to_jsonable(snap)


class _HttpError(Exception):
    """An error with an HTTP status; rendered as a JSON error body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------


async def _read_request(
    reader: asyncio.StreamReader,
) -> "tuple[str, str, dict[str, str], bytes] | None":
    """Parse one HTTP/1.1 request; ``None`` on EOF or an unreadable head."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    except asyncio.LimitOverrunError:
        raise _HttpError(400, "request head too large") from None
    line, *header_lines = head[:-4].decode("latin-1").split("\r\n")
    try:
        method, target, _version = line.split(None, 2)
    except ValueError:
        return None
    headers: dict[str, str] = {}
    for raw in header_lines:
        name, _, value = raw.partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length") or 0)
    except ValueError:
        length = -1
    if length < 0:
        raise _HttpError(400, "malformed Content-Length")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


def _encode_response(status: int, payload: dict, keep_alive: bool) -> bytes:
    """``payload`` must already be plain builtins (every route's is)."""
    body = json.dumps(payload).encode()
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


def _parse_json(body: bytes) -> dict:
    try:
        return json.loads(body.decode() or "{}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _HttpError(400, f"invalid JSON body: {exc}") from exc


def _payload_from_query(query: str) -> dict:
    """``/recommend?item_id=5&k=10`` — the curl-friendly form."""
    params = {name: values[-1] for name, values in parse_qs(query).items()}
    payload: dict = {}
    for name in ("item_id", "k"):
        if name in params:
            payload[name] = params.pop(name)
    for name in ("gender", "age_bucket", "purchase_power"):
        if name in params:
            payload[name] = params.pop(name)
    if params:
        raise _HttpError(400, f"unknown query params: {sorted(params)}")
    return payload


def _parse_k(payload: dict, default_k: int) -> int:
    k = int(payload.get("k", default_k))
    require_positive(k, "k")
    return k


# ----------------------------------------------------------------------
# background-thread runner
# ----------------------------------------------------------------------


class GatewayThread:
    """Run a :class:`RecommendGateway` on a dedicated event-loop thread.

    The service itself is plain threaded numpy code; only the edge needs
    an event loop.  This wrapper owns one on a daemon thread so tests,
    benchmarks and in-process callers can stand a live socket up with::

        with GatewayThread(service, GatewayConfig(port=0)) as gw:
            url = f"http://127.0.0.1:{gw.port}"
            ...

    ``swap_gate`` is re-exported for refresh coordination from the
    caller's thread.
    """

    def __init__(self, service, config: GatewayConfig | None = None) -> None:
        self.gateway = RecommendGateway(service, config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.gateway.port

    def swap_gate(self, swap: Callable[[], T]) -> T:
        return self.gateway.swap_gate(swap)

    def start(self, timeout: float = 10.0) -> "GatewayThread":
        require(self._thread is None, "gateway thread already started")
        self._thread = threading.Thread(
            target=self._run, name="gateway", daemon=True
        )
        self._thread.start()
        require(
            self._ready.wait(timeout), f"gateway failed to start in {timeout}s"
        )
        if self._startup_error is not None:
            raise RuntimeError("gateway startup failed") from self._startup_error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=timeout)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "GatewayThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.gateway.start())
        except BaseException as exc:  # noqa: BLE001 - surface to starter
            self._startup_error = exc
            try:
                # start() may have spawned the batcher before failing
                # (e.g. the listen socket was taken); reap it.
                loop.run_until_complete(self.gateway.stop())
            finally:
                loop.close()
                self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.gateway.stop())
            # Connection handlers for sockets still open at shutdown would
            # otherwise outlive the loop and fire on it after close().
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()


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


__all__ = [
    "GatewayConfig",
    "GatewayThread",
    "RecommendGateway",
    "fetch_json",
    "request_from_payload",
    "request_to_payload",
    "result_to_payload",
    "wait_for_gateway",
]
