"""Process-level parameter server for hot output rows (real TNS, one box).

The paper's TNS architecture (Section III) keeps parameters on their
owning workers and moves gradients over the network; ATNS then takes the
*hottest* tokens out of that traffic by replicating their output rows
per worker and reconciling periodically.  The shared-memory Hogwild
engine (:mod:`repro.core.hogwild`) keeps no replicas by default; given
an explicit ``hot_threshold`` it reconciles them under a
``multiprocessing.Lock`` — fine up to a handful of workers, but every
merge serializes on one lock and dirties the same cache lines from
every core.  Past ~8 workers the paper's actual answer is a parameter
*server*: workers push deltas, the server owns the merge.

:class:`HotRowParameterServer` is that architecture at process scale:

- a dedicated server process owns the hot-row block ``w_out[hot_ids]``;
- each worker holds a private replica and, every ``sync_interval``
  batches, sends its accumulated **delta** over a duplex pipe and
  receives the freshly merged block back (one round trip, no shared
  lock — concurrent merges from different workers serialize inside the
  server, not on the workers' cores);
- on shutdown (all workers done) the server writes the merged block
  into the shared ``w_out`` it inherited via fork, so the master reads
  final parameters exactly where the Hogwild engine leaves them.

Delta accumulation (not averaging) is the same correction the simulated
ATNS engine applies: each worker sees only its shard's share of a hot
token's pairs, so summing per-worker deltas reproduces the sequential
update volume.

Cold rows stay in shared memory: they are HBGP-partitioned across
shards, so cross-worker traffic on them is rare by construction — the
server handles exactly the rows where contention lives.
"""

from __future__ import annotations

import os
import traceback
from multiprocessing.connection import wait as connection_wait

import numpy as np

from repro.utils import get_logger, require_positive

logger = get_logger("core.paramserver")

#: Wire protocol message tags (worker -> server).
_MSG_PULL = 0   # -> server replies with the current block
_MSG_MERGE = 1  # payload: delta array; server applies, replies with block
_MSG_DONE = 2   # worker finished; server closes the connection


def _serve(
    w_out: np.ndarray,
    hot_ids: np.ndarray,
    conns: list,
    worker_ends: list,
    pin_cpu: "int | None",
) -> None:
    """Server process main loop: merge deltas, answer pulls, then
    publish the final block into the shared ``w_out``."""
    try:
        # Fork duplicated the worker-side pipe ends into this process;
        # close them or a crashed worker's connection can never EOF.
        for conn in worker_ends:
            conn.close()
        _pin_to_cpu(pin_cpu)
        block = w_out[hot_ids].copy()
        live = list(conns)
        while live:
            for conn in connection_wait(live):
                try:
                    msg, payload = conn.recv()
                except EOFError:
                    # Worker crashed without a DONE; drop its connection
                    # (the master surfaces the crash via exit codes).
                    live.remove(conn)
                    continue
                if msg == _MSG_MERGE:
                    block += payload
                    conn.send(block)
                elif msg == _MSG_PULL:
                    conn.send(block)
                elif msg == _MSG_DONE:
                    live.remove(conn)
                    conn.close()
                else:  # pragma: no cover - protocol violation
                    raise RuntimeError(f"unknown message tag {msg!r}")
        # Publish through the fork-inherited shared mapping.
        w_out[hot_ids] = block
    except Exception:  # pragma: no cover - surfaced via exit code
        traceback.print_exc()
        raise SystemExit(1)


def _pin_to_cpu(index: "int | None") -> None:
    """Best-effort affinity pin of the calling process to one core.

    ``None`` leaves the process where the scheduler put it.  Used by the
    server process here and by the Hogwild workers.
    """
    if index is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    except OSError:  # pragma: no cover - containers may forbid it
        pass


class HotRowParameterServer:
    """Own the hot-row block in a dedicated process; serve delta merges.

    Built by the master *before* forking workers: :meth:`start` forks
    the server (which inherits the shared ``w_out`` mapping), and
    :meth:`connection` hands each worker its pre-created pipe end.
    After the workers are joined, :meth:`join` waits for the server to
    publish the merged block into ``w_out`` and exit.

    Parameters
    ----------
    w_out:
        The shared output matrix (a view into the trainer's shm block).
    hot_ids:
        Token ids whose rows the server owns.
    n_workers:
        Number of client connections to pre-create.
    ctx:
        A ``fork`` multiprocessing context.
    pin_cpu:
        Optional core index for the server process itself.
    """

    def __init__(
        self,
        w_out: np.ndarray,
        hot_ids: np.ndarray,
        n_workers: int,
        ctx,
        pin_cpu: "int | None" = None,
    ) -> None:
        require_positive(n_workers, "n_workers")
        self._w_out = w_out
        self._hot_ids = hot_ids
        self._ctx = ctx
        self._pin_cpu = pin_cpu
        pairs = [ctx.Pipe(duplex=True) for _ in range(n_workers)]
        self._server_ends = [a for a, _ in pairs]
        self._worker_ends = [b for _, b in pairs]
        self._proc = None

    def start(self) -> None:
        """Fork the server process."""
        if self._proc is not None:
            return
        self._proc = self._ctx.Process(
            target=_serve,
            args=(
                self._w_out, self._hot_ids, self._server_ends,
                self._worker_ends, self._pin_cpu,
            ),
            daemon=True,
        )
        self._proc.start()

    def connection(self, worker_id: int):
        """The worker-side pipe end for ``worker_id``."""
        return self._worker_ends[worker_id]

    def join(self, timeout: float = 30.0) -> None:
        """Wait for the server to publish and exit; raise on failure."""
        if self._proc is None:
            return
        # The master holds references to every worker end; close them so
        # a crashed worker's connection EOFs instead of blocking wait().
        for conn in self._worker_ends:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._proc.join(timeout)
        if self._proc.is_alive():  # pragma: no cover - abnormal path
            self._proc.terminate()
            self._proc.join()
            raise RuntimeError("parameter server did not shut down cleanly")
        if self._proc.exitcode != 0:
            raise RuntimeError(
                f"parameter server exited with code {self._proc.exitcode}"
            )


class ServerHotSync:
    """Worker-side hot-row synchronization through the parameter server.

    Mirrors :class:`repro.core.hogwild.LockHotSync`'s interface: one
    ``pull`` at startup, ``merge(delta) -> merged block`` at every sync
    point, ``close`` when the worker's shard is exhausted.
    """

    def __init__(self, conn) -> None:
        self._conn = conn

    def pull(self) -> np.ndarray:
        self._conn.send((_MSG_PULL, None))
        return self._conn.recv()

    def merge(self, delta: np.ndarray) -> np.ndarray:
        self._conn.send((_MSG_MERGE, delta))
        return self._conn.recv()

    def close(self) -> None:
        try:
            self._conn.send((_MSG_DONE, None))
            self._conn.close()
        except (OSError, BrokenPipeError):  # pragma: no cover - server gone
            pass
