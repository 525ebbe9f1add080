"""The harness's own load generator: one process, asyncio, two connections.

Both loops run here:

- **open loop** — requests fire on a schedule drawn before the run.
  Each request is timed from the moment it was *due*, so a stall (in the
  server, in the connection pool, or in this generator) is charged to
  every request it delays, and the generator's own lateness is kept per
  request so a reader can tell the three apart;
- **closed loop** — N callers, each sending its next call when the reply
  to the previous one arrives.

Every step has a hard deadline: requests still outstanding when it
passes are cancelled and counted as failed, so an overloaded step ends
in bounded time.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from bench.trace import now

#: Sleep to within this margin of a due time, then yield-spin: the event
#: loop rounds timers up to whole milliseconds, which would otherwise add
#: ~0.5 ms of generator lateness to every request.
SPIN_MARGIN_S = 0.0012

#: Grace after a step's last due time before outstanding requests are
#: cancelled: at least this many seconds, or this share of the step.
DEADLINE_MIN_S = 2.0
DEADLINE_SHARE = 0.5


@dataclass
class Sample:
    """One request, with every timestamp on the ``bench.trace.now`` clock."""

    index: int
    due: float
    #: When the generator actually got to it (``fired - due`` = lateness).
    fired: float
    #: When a connection became free and the bytes were written.
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # 0 = no answer (timeout, refused, cancelled)
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200


class NetClient:
    """A fixed pool of keep-alive HTTP/1.1 connections to one gateway."""

    def __init__(self, host: str, port: int, connections: int = 2) -> None:
        self._host = host
        self._port = port
        self._size = connections
        self._pool: "asyncio.Queue | None" = None

    async def __aenter__(self) -> "NetClient":
        self._pool = asyncio.Queue()
        for _ in range(self._size):
            self._pool.put_nowait(await self._connect())
        return self

    async def __aexit__(self, *_exc) -> None:
        while not self._pool.empty():
            conn = self._pool.get_nowait()
            if conn is not None:
                await self._close(conn)

    async def _connect(self):
        return await asyncio.open_connection(self._host, self._port)

    @staticmethod
    async def _close(conn) -> None:
        _reader, writer = conn
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def request(self, method: str, path: str, body: bytes, sample: Sample) -> Sample:
        """Send one request on the next free connection; fill in ``sample``."""
        conn = await self._pool.get()
        healthy = False
        try:
            if conn is None:  # the previous user of this slot broke it
                conn = await self._connect()
            reader, writer = conn
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            sample.sent = now()
            writer.write(head + body)
            await writer.drain()
            status_line = await reader.readline()
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            sample.body = await reader.readexactly(length) if length else b""
            sample.status = int(status_line.split(None, 2)[1])
            sample.done = now()
            healthy = True
        except (ConnectionError, OSError, asyncio.IncompleteReadError, IndexError, ValueError):
            sample.done = now()
        finally:
            # A connection abandoned mid-exchange (error or cancellation)
            # cannot be reused: its slot is refilled lazily by the next user.
            if healthy:
                self._pool.put_nowait(conn)
            else:
                if conn is not None:
                    conn[1].close()
                self._pool.put_nowait(None)
        return sample


async def _sleep_until(deadline: float) -> None:
    delay = deadline - now() - SPIN_MARGIN_S
    if delay > 0:
        await asyncio.sleep(delay)
    while now() < deadline:
        await asyncio.sleep(0)


async def _gather_until(tasks: list, deadline: float) -> None:
    """Wait for ``tasks`` until ``deadline``; cancel whatever is left."""
    if not tasks:
        return
    done, pending = await asyncio.wait(tasks, timeout=max(deadline - now(), 0.0))
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        task.result()  # an error the request path did not expect must not vanish


def _deadline(last_due: float, duration_s: float) -> float:
    return last_due + max(DEADLINE_MIN_S, DEADLINE_SHARE * duration_s)


async def open_loop(
    client: NetClient, path: str, bodies: list[bytes], due: np.ndarray, duration_s: float
) -> list[Sample]:
    """Fire ``bodies[i]`` at ``start + due[i]`` regardless of replies."""
    start = now()
    samples: list[Sample] = []
    tasks = []
    for index, (offset, body) in enumerate(zip(due, bodies)):
        due_at = start + float(offset)
        await _sleep_until(due_at)
        sample = Sample(index, due_at, now())
        samples.append(sample)
        tasks.append(asyncio.create_task(client.request("POST", path, body, sample)))
    last_due = samples[-1].due if samples else start
    await _gather_until(tasks, _deadline(last_due, duration_s))
    return samples


async def closed_loop(
    client: NetClient, path: str, bodies: list[list[bytes]], duration_s: float
) -> list[Sample]:
    """One caller per body list; each sends its next call on reply."""
    start = now()
    end = start + duration_s
    samples: list[Sample] = []

    async def caller(mine: list[bytes]) -> None:
        sent = 0
        while now() < end:
            at = now()
            sample = Sample(len(samples), at, at)
            samples.append(sample)
            await client.request("POST", path, mine[sent % len(mine)], sample)
            sent += 1
            if not sample.ok:
                await asyncio.sleep(0.01)  # do not spin on a dead gateway

    tasks = [asyncio.create_task(caller(mine)) for mine in bodies]
    await _gather_until(tasks, _deadline(end, duration_s))
    return samples


async def get(client: NetClient, path: str) -> Sample:
    """One GET, timed like any other request (healthz, metrics, a new listing)."""
    at = now()
    return await client.request("GET", path, b"", Sample(-1, at, at))
