"""Pipelined skip-gram pair feeds for the parallel trainers.

The Hogwild worker loop of :mod:`repro.core.hogwild` consumes one
epoch's worth of materialized ``(centers, contexts)`` arrays at a time.
Producing those arrays is pure Python/NumPy work (subsampling draw,
window slicing, dynamic-window thinning, global shuffle) that the SGD
stage otherwise has to wait for at every epoch boundary — on the paper's
pipelines (TNS, Section III; EGES's ODPS stages) sample generation runs
as its *own* stage, overlapped with training.

Two feed implementations share one contract (``epochs()`` yields
``cfg.epochs`` pairs of int64 arrays, then stops):

- :class:`EpochPairFeed` materializes inline in the consumer process —
  the single-core-friendly default.
- :class:`PipelinedPairFeed` runs the same generator in a dedicated
  *producer process* writing into double-buffered shared-memory pair
  blocks: while the trainer runs SGD over epoch ``e``'s block, the
  producer is already filling epoch ``e+1``'s.  The producer draws from
  the same seeded RNG stream the inline feed would, so the two feeds
  emit **identical** pair streams for the same arguments (asserted in
  ``tests/core/test_pairfeed.py``) — pipelining changes wall-clock
  overlap, never the training data.

Both feeds give the pair generator a *dedicated* RNG (the negative
sampler draws from a separate stream in the worker loop), which is what
makes the inline/pipelined equivalence exact rather than statistical.
"""

from __future__ import annotations

import multiprocessing
import traceback
from multiprocessing import shared_memory

import numpy as np

from repro.core.sampling import PairGenerator, unpack_pairs
from repro.core.sgns import SGNSConfig, pair_generator
from repro.utils import available_cpus, ensure_rng, get_logger, require_positive

logger = get_logger("core.pairfeed")

_MODES = ("auto", "inline", "pipelined")


def make_shard_generator(
    sequences: list[np.ndarray],
    cfg: SGNSConfig,
    keep: "np.ndarray | None",
    seed: int,
) -> PairGenerator:
    """The canonical per-shard pair generator.

    Both feeds (and the equivalence tests) construct their generator
    here, so a seed fully determines the pair stream regardless of which
    process runs it.  The parallel engines always materialize epochs
    (the feeds call ``materialize_pairs`` themselves and unpack it once
    per epoch — that *is* the batched worker loop's input format);
    ``cfg.precompute_pairs`` only selects how the local trainer's
    ``batches()`` walks the corpus.
    """
    return pair_generator(sequences, cfg, keep, ensure_rng(seed))


class EpochPairFeed:
    """Inline feed: materialize each epoch in the consuming process."""

    mode = "inline"

    def __init__(
        self,
        sequences: list[np.ndarray],
        cfg: SGNSConfig,
        keep: "np.ndarray | None",
        seed: int,
    ) -> None:
        self._sequences = sequences
        self._cfg = cfg
        self._keep = keep
        self._seed = seed
        self._generator: PairGenerator | None = None
        self.n_epochs = cfg.epochs

    def start(self) -> None:
        """No-op (the inline feed has no producer stage)."""

    def epochs(self):
        """Yield ``cfg.epochs`` materialized ``(centers, contexts)`` arrays.

        The generator is built lazily on first use so it is constructed
        in the *consumer* process (after fork), exactly like the
        producer process builds its own — keeping RNG state private to
        the process that draws from it.
        """
        if self._generator is None:
            self._generator = make_shard_generator(
                self._sequences, self._cfg, self._keep, self._seed
            )
        for _ in range(self.n_epochs):
            yield unpack_pairs(self._generator.materialize_pairs())

    def close(self) -> None:
        """No-op (nothing owned outside the consumer)."""


def _producer_entry(
    sequences: list[np.ndarray],
    cfg: SGNSConfig,
    keep: "np.ndarray | None",
    seed: int,
    n_epochs: int,
    centers: list[np.ndarray],
    contexts: list[np.ndarray],
    control: np.ndarray,
    ready: list,
    free: list,
) -> None:
    """Producer process: fill the double buffer one epoch ahead."""
    try:
        generator = make_shard_generator(sequences, cfg, keep, seed)
        capacity = centers[0].shape[0]
        for epoch in range(n_epochs):
            buf = epoch & 1
            free[buf].acquire()
            c, x = unpack_pairs(generator.materialize_pairs())
            n = len(c)
            if n > capacity:  # pragma: no cover - capacity is an upper bound
                raise RuntimeError(
                    f"epoch produced {n} pairs > buffer capacity {capacity}"
                )
            centers[buf][:n] = c
            contexts[buf][:n] = x
            control[buf] = n
            ready[buf].release()
    except Exception:  # pragma: no cover - surfaced via exit code
        traceback.print_exc()
        raise SystemExit(1)


class PipelinedPairFeed:
    """Producer/consumer feed over double-buffered shared-memory blocks.

    The master process constructs the feed (allocating one shm segment
    holding two ``capacity``-pair blocks plus a two-slot control array)
    and calls :meth:`start` *before* forking the consuming worker, so
    both producer and consumer inherit the buffer mappings and the
    hand-off semaphores.  ``ready[b]``/``free[b]`` implement classic
    double buffering: the producer fills block ``b`` while the consumer
    trains on block ``1 - b``, and neither ever touches a block the
    other holds.

    ``capacity`` is :meth:`PairGenerator.count_pairs` — the
    no-subsampling, no-dynamic-window upper bound on an epoch's pair
    count, so a block can always hold a full epoch.

    Lifecycle: the creating (master) process owns the segment and the
    producer; :meth:`close` joins (or, on abnormal shutdown, terminates)
    the producer and unlinks the segment.  Consumers only ever read.
    """

    mode = "pipelined"

    def __init__(
        self,
        sequences: list[np.ndarray],
        cfg: SGNSConfig,
        keep: "np.ndarray | None",
        seed: int,
        ctx=None,
    ) -> None:
        require_positive(cfg.epochs, "epochs")
        self._sequences = sequences
        self._cfg = cfg
        self._keep = keep
        self._seed = seed
        self.n_epochs = cfg.epochs
        self._ctx = ctx or multiprocessing.get_context("fork")
        probe = make_shard_generator(sequences, cfg, keep, seed)
        self.capacity = max(probe.count_pairs(), 1)
        itemsize = np.dtype(np.int64).itemsize
        # Layout: control[2] | centers[2][capacity] | contexts[2][capacity].
        self._shm = shared_memory.SharedMemory(
            create=True, size=(2 + 4 * self.capacity) * itemsize
        )
        whole = np.ndarray(
            (2 + 4 * self.capacity,), dtype=np.int64, buffer=self._shm.buf
        )
        self._control = whole[:2]
        self._control[:] = 0
        blocks = whole[2:].reshape(4, self.capacity)
        self._centers = [blocks[0], blocks[1]]
        self._contexts = [blocks[2], blocks[3]]
        self._ready = [self._ctx.Semaphore(0), self._ctx.Semaphore(0)]
        self._free = [self._ctx.Semaphore(1), self._ctx.Semaphore(1)]
        self._proc = None
        self._closed = False

    def start(self) -> None:
        """Fork the producer (call from the master, before the workers)."""
        if self._proc is not None:
            return
        self._proc = self._ctx.Process(
            target=_producer_entry,
            args=(
                self._sequences,
                self._cfg,
                self._keep,
                self._seed,
                self.n_epochs,
                self._centers,
                self._contexts,
                self._control,
                self._ready,
                self._free,
            ),
            daemon=True,
        )
        self._proc.start()

    def epochs(self):
        """Consumer side: yield each epoch's block as it becomes ready.

        The yielded arrays are *views* into the shared block; they are
        valid until the next iteration (which releases the block back to
        the producer).  The worker loop consumes an epoch fully before
        advancing, so no copy is needed.
        """
        if self._proc is None:
            self.start()
        for epoch in range(self.n_epochs):
            buf = epoch & 1
            self._ready[buf].acquire()
            n = int(self._control[buf])
            yield self._centers[buf][:n], self._contexts[buf][:n]
            self._free[buf].release()

    def close(self, timeout: float = 5.0) -> None:
        """Join the producer and unlink the segment (master only).

        If the consumer died mid-run the producer may be blocked on a
        ``free`` semaphore; it is terminated rather than joined so a
        failed fit never hangs the caller.
        """
        if self._closed:
            return
        self._closed = True
        if self._proc is not None:
            self._proc.join(timeout)
            if self._proc.is_alive():  # pragma: no cover - abnormal path
                self._proc.terminate()
                self._proc.join()
            if self._proc.exitcode not in (0, None):
                logger.warning(
                    "pair-feed producer exited with code %s",
                    self._proc.exitcode,
                )
        # Drop views before unmapping; numpy views do not pin shm.buf.
        self._control = None
        self._centers = None
        self._contexts = None
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    @property
    def producer_exitcode(self) -> "int | None":
        """Exit code of the producer process (None while running)."""
        return None if self._proc is None else self._proc.exitcode


def resolve_feed_mode(mode: str, n_workers: int, fork_available: bool) -> str:
    """Pick the concrete feed for a requested mode.

    ``"auto"`` pipelines only when there are spare cores for the
    producer stages (more cores than workers) *and* fork is available;
    on a fully subscribed or single-core box the producers would steal
    exactly the cycles SGD needs.  An explicit ``"pipelined"`` request
    is honoured whenever fork exists (useful for equivalence tests),
    and degrades to inline — with a warning — where it does not.
    """
    if mode not in _MODES:
        raise ValueError(f"pair_feed must be one of {_MODES}, got {mode!r}")
    if mode == "inline":
        return "inline"
    if not fork_available:
        if mode == "pipelined":
            logger.warning(
                "pair_feed='pipelined' requires the fork start method;"
                " falling back to inline materialization"
            )
        return "inline"
    if mode == "pipelined":
        return "pipelined"
    return "pipelined" if available_cpus() > n_workers else "inline"
