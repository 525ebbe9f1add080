"""The promotion pipeline, and the nightly refresh daemon that runs it.

The paper's deployment recomputes *all* embeddings daily (Sec. V); EGES
(KDD'18) describes the same cadence — an offline build feeding an online
swap every night.  Every promotion here, a nightly cycle or a stream
window (a refresh whose day is the window), is one
:func:`promotion_step` under the store's writer lock: read the live
model and catalogue → warm start → drift gate → build → flip bundles,
partition and catalogue together.  The live state lives only in the
store, so the nightly and the stream are two schedules of one writer.
Every bundle is built before the first pointer flip, so a failure
anywhere leaves every shard on the previous generation.

:class:`RefreshDaemon` runs that step on a :class:`PeriodicLoop` and
adds what only a nightly job needs: ingest, **retry with exponential
backoff + jitter** (up to ``max_retries`` per cycle), a **circuit
breaker** (after ``failure_threshold`` consecutive failed cycles it stops
attempting and the old generation keeps serving until
:meth:`RefreshDaemon.reset_breaker`), and a drift gate that fails the
cycle without retrying — a large day-over-day drift usually means bad
input data.

Observability flows through the shared
:class:`~repro.serving.metrics.ServingMetrics`: per-phase latency
histograms (``refresh_ingest`` / ``refresh_train`` / ``refresh_build`` /
``refresh_promote`` / ``refresh_cycle``), counters (cycles, promotions,
failures, retries, drift aborts), gauges (consecutive failures, breaker
state, live-generation age) and the last error string — all of which
surface in ``MatchingService.snapshot()`` when the daemon is constructed
over a service.  A ``fault_hook`` called at the start of every phase
lets tests, ``benchmarks/bench_refresh.py`` and the CLI inject failures.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from repro.core.incremental import embedding_drift, incremental_update
from repro.core.sgns import SGNSConfig
from repro.core.vocab import TokenKind
from repro.data.schema import BehaviorDataset
from repro.serving.metrics import ServingMetrics
from repro.serving.sharding import promote, serving_target
# bench/trace.py wraps this module's bindings of the two builders.
from repro.serving.sharding import build_shard_bundle  # noqa: F401
from repro.serving.store import build_bundle  # noqa: F401
from repro.utils import ensure_rng, get_logger, require, require_positive

logger = get_logger("serving.refresh")

@dataclass
class PromotionConfig:
    """The knobs of :func:`promotion_step`, shared by every promoter.

    Attributes
    ----------
    train_config, lr_decay:
        Passed to :func:`~repro.core.incremental.incremental_update`;
        the warm start trains in ``train_config.dtype``.
    drift_threshold:
        Reject the promotion when the post-update
        :func:`~repro.core.incremental.embedding_drift` exceeds this
        (``None`` disables the gate; the drift is measured either way,
        over item tokens, the population that feeds candidate tables).
    build_kwargs:
        Extra keyword arguments for the bundle build (``n_cells``,
        ``table_coverage``, ``ann_precision``, ...).
    """

    train_config: SGNSConfig | None = None
    lr_decay: float = 0.5
    drift_threshold: float | None = None
    build_kwargs: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.drift_threshold is not None:
            require_positive(self.drift_threshold, "drift_threshold")


@dataclass
class RefreshConfig(PromotionConfig):
    """Knobs of the nightly refresh cycle (plus :class:`PromotionConfig`'s).

    Attributes
    ----------
    interval:
        Seconds between cycle *starts* when running on the background
        thread (86400 = the paper's daily cadence; tests use fractions
        of a second).
    max_retries:
        Retries per cycle after the first attempt fails (so a cycle
        makes at most ``max_retries + 1`` attempts).
    backoff_base, backoff_factor, backoff_cap:
        Retry ``i`` (1-based) sleeps
        ``min(cap, base * factor ** (i - 1))`` seconds, scaled by
        jitter.
    jitter:
        Uniform multiplicative jitter: each backoff is scaled by a draw
        from ``[1 - jitter, 1 + jitter]`` so a fleet of daemons never
        retries in lockstep.
    failure_threshold:
        Consecutive failed cycles that open the circuit breaker.
    """

    interval: float = 86400.0
    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_cap: float = 60.0
    jitter: float = 0.1
    failure_threshold: int = 3

    def validate(self) -> None:
        super().validate()
        require_positive(self.interval, "interval")
        require(self.max_retries >= 0, "max_retries must be >= 0")
        require_positive(self.backoff_base, "backoff_base")
        require(self.backoff_factor >= 1.0, "backoff_factor must be >= 1")
        require_positive(self.backoff_cap, "backoff_cap")
        require(0.0 <= self.jitter < 1.0, "jitter must be in [0, 1)")
        require_positive(self.failure_threshold, "failure_threshold")


@dataclass
class RefreshReport:
    """Outcome of one refresh cycle."""

    cycle: int
    promoted: bool
    attempts: int
    drift: float | None = None
    versions: "list[int] | int | None" = None
    phase_seconds: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    aborted_by: str | None = None  # "drift_gate" | "circuit_breaker" | None

    def as_dict(self) -> dict:
        """JSON-serializable form (used by CLI / bench reports)."""
        return asdict(self)


class DriftGateError(RuntimeError):
    """Raised by :func:`promotion_step` when the drift gate rejects it."""

    def __init__(self, drift: float, threshold: float) -> None:
        super().__init__(
            f"embedding drift {drift:.4f} exceeds threshold {threshold:.4f};"
            " keeping the previous generation"
        )
        self.drift = drift


def promotion_step(
    target,
    config: PromotionConfig,
    rng: np.random.Generator,
    inputs: "Callable[[BehaviorDataset | None], tuple[BehaviorDataset, ...]]",
    plan: "Callable[[BehaviorDataset], tuple[object, np.ndarray | None, bool]]",
    *,
    gate=None,
    enter: "Callable[[str], None] | None" = None,
    phase_seconds: "dict[str, float] | None" = None,
) -> "tuple[float, list[int] | int]":
    """One promotion: live state → warm start → drift gate → build → promote.

    Runs under the store's ``writer_lock``, so it promotes from the
    generation it read.  ``inputs(catalogue)`` maps the live catalogue
    (``None`` until a promotion installs one) to ``(train_on,
    catalogue)``; the live model trains on ``train_on``, and
    :class:`DriftGateError` is raised when the drift is over
    ``config.drift_threshold``.  ``plan(catalogue)`` then returns the
    ``(shards, partition, allow_moves)`` of the build, and the bundles,
    partition and catalogue flip onto ``target`` inside ``gate``.

    ``enter(phase)`` runs as each of ``train`` / ``build`` / ``promote``
    starts (raising from it fails the step), and each phase's seconds
    land in ``phase_seconds`` as it ends, so a failed step still shows
    how far it got.  Nothing is flipped unless every phase before the
    flip succeeded.  Returns ``(drift, versions)``.
    """
    store, _ = serving_target(target)
    phase_seconds = {} if phase_seconds is None else phase_seconds

    def start(phase: str) -> float:
        if enter is not None:
            enter(phase)
        return time.perf_counter()

    with store.writer_lock:
        previous = store.model
        dataset, catalogue = inputs(store.catalogue)

        began = start("train")
        updated = incremental_update(
            previous, dataset, config=config.train_config,
            lr_decay=config.lr_decay, seed=rng,
        )
        drift = embedding_drift(previous, updated, kind=TokenKind.ITEM)
        if config.drift_threshold is not None and drift > config.drift_threshold:
            raise DriftGateError(drift, config.drift_threshold)
        phase_seconds["train"] = time.perf_counter() - began

        began = start("build")
        shards, partition, allow_moves = plan(catalogue)
        artifacts = store.build_generation(
            updated, catalogue, shards=shards, partition=partition, **config.build_kwargs
        )
        phase_seconds["build"] = time.perf_counter() - began

        began = start("promote")
        versions = promote(
            target, *artifacts, allow_moves=allow_moves, gate=gate, catalogue=catalogue
        )
        phase_seconds["promote"] = time.perf_counter() - began
    return drift, versions


def place_new_items(store, n_items: int) -> np.ndarray:
    """The live item -> shard map extended to ``n_items``: every item
    keeps its shard, and each newly listed one goes to the shard that
    owns the fewest items at that point."""
    old = store.item_partition
    assignment = np.empty(n_items, dtype=np.int64)
    assignment[: len(old)] = old
    loads = np.bincount(old, minlength=store.n_shards)
    for item in range(len(old), n_items):
        assignment[item] = shard = int(np.argmin(loads))
        loads[shard] += 1
    return assignment


class PeriodicLoop:
    """Calls ``tick()`` every ``interval`` seconds on one daemon thread.

    The background-thread lifecycle of the refresh daemon and the stream
    applier.  ``stop(timeout)`` asks the loop to exit and waits up to
    ``timeout`` for an in-flight tick.  A tick that outlives the wait
    keeps its thread, and a later ``start()`` revives that loop (with
    its own tick and interval) rather than spawning a second one beside
    it: after ``start()`` exactly one loop runs.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        #: Set while the loop is asked to stop; ticks may wait on it.
        self.stopping = threading.Event()
        self._lock = threading.Lock()
        self._ticked = threading.Condition()
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self, tick: Callable[[], object], interval: float) -> bool:
        """Run the loop; ``False`` when one was already running."""
        with self._lock:
            self.stopping.clear()
            if self._thread is not None:
                return False
            self._thread = threading.Thread(
                target=self._run, args=(tick, interval), name=self.name, daemon=True
            )
            self._thread.start()
            return True

    def stop(self, timeout: float) -> None:
        self.stopping.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)

    def notify(self) -> None:
        """Wake every :meth:`wait_until` caller to re-check its condition."""
        with self._ticked:
            self._ticked.notify_all()

    def wait_until(self, done: Callable[[], bool], timeout: float) -> bool:
        """Block until ``done()`` (True) or ``timeout`` seconds (False)."""
        deadline = time.monotonic() + timeout
        with self._ticked:
            while not done():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._ticked.wait(remaining)
            return True

    def _run(self, tick: Callable[[], object], interval: float) -> None:
        while True:
            # Decided under the lock, so `start` either sees this thread
            # gone or has revived it before it checks.
            with self._lock:
                if self.stopping.is_set():
                    self._thread = None
                    return
            began = time.perf_counter()
            try:
                tick()
            except Exception:  # noqa: BLE001 - the loop must survive
                logger.exception("%s tick raised unexpectedly", self.name)
            self.stopping.wait(max(interval - (time.perf_counter() - began), 0.0))


class RefreshDaemon:
    """Runs the nightly refresh cycle against a store or a live service.

    Parameters
    ----------
    target:
        A store, or (preferred) a service wrapping one: see
        :func:`~repro.serving.sharding.serving_target`.
    dataset_source:
        ``dataset_source(cycle) -> BehaviorDataset`` — hands the daemon
        "today's" behavior data each cycle (cycle numbers start at 1).
        See :func:`bootstrap_day_source` for a synthetic stand-in.
    config, metrics:
        Cycle knobs and the metrics sink (defaults to the service's
        metrics when ``target`` is a service).
    fault_hook:
        ``fault_hook(phase, attempt)`` called at the start of every
        phase; raising from it fails the attempt.  The injection point
        for tests and benchmarks.
    promote_gate:
        Optional ``promote_gate(flip)`` wrapper the flip runs inside (it
        calls ``flip()`` once and returns its result): the gateway's
        :meth:`~repro.serving.gateway.RecommendGateway.swap_gate`, so a
        promotion never tears an in-flight coalesced batch.
    seed:
        Randomness for warm-start initialization and backoff jitter.
    """

    def __init__(
        self,
        target,
        dataset_source: Callable[[int], BehaviorDataset],
        config: RefreshConfig | None = None,
        metrics: ServingMetrics | None = None,
        fault_hook: "Callable[[str, int], None] | None" = None,
        promote_gate: "Callable[[Callable[[], object]], object] | None" = None,
        seed: "int | np.random.Generator | None" = 0,
    ) -> None:
        self._config = config or RefreshConfig()
        self._config.validate()
        self._target = target
        self._store, self._metrics = serving_target(target, metrics)
        self._dataset_source = dataset_source
        self._fault_hook = fault_hook
        self._promote_gate = promote_gate
        self._rng = ensure_rng(seed)

        self._lock = threading.Lock()
        self._loop = PeriodicLoop("refresh-daemon")
        self._cycles = 0
        self._consecutive_failures = 0
        self._breaker_open = False
        self._last_drift: float | None = None
        self._last_error: str | None = None
        self._history: list[RefreshReport] = []

        self._metrics.set_gauge(
            "refresh_generation_age_s", lambda: self._store.generation_age_s
        )
        self._metrics.set_gauge("refresh_consecutive_failures", 0.0)
        self._metrics.set_gauge("refresh_breaker_open", 0.0)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def breaker_open(self) -> bool:
        """Whether the consecutive-failure circuit breaker has tripped."""
        return self._breaker_open

    @property
    def history(self) -> list[RefreshReport]:
        """Reports of every completed cycle, oldest first."""
        with self._lock:
            return list(self._history)

    def reset_breaker(self) -> None:
        """Close the circuit breaker and allow refresh attempts again."""
        with self._lock:
            self._breaker_open = False
            self._consecutive_failures = 0
        self._metrics.set_gauge("refresh_consecutive_failures", 0.0)
        self._metrics.set_gauge("refresh_breaker_open", 0.0)
        logger.info("refresh circuit breaker reset")

    def status(self) -> dict:
        """One JSON-serializable view of the daemon's state."""
        with self._lock:
            history = [report.as_dict() for report in self._history]
            state = {
                "running": self._loop.running,
                "cycles": self._cycles,
                "consecutive_failures": self._consecutive_failures,
                "breaker_open": self._breaker_open,
                "last_drift": self._last_drift,
                "last_error": self._last_error,
            }
        state["store_version"] = self._store.version
        state["generation_age_s"] = self._store.generation_age_s
        state["history"] = history
        return state

    # ------------------------------------------------------------------
    # the cycle
    # ------------------------------------------------------------------

    def run_once(self) -> RefreshReport:
        """Run one full refresh cycle (with in-cycle retries).

        Never raises: failures are retried with backoff, and a cycle
        that exhausts its attempts (or hits the drift gate) reports the
        error while the previous generation keeps serving.
        """
        with self._lock:
            self._cycles += 1
            cycle = self._cycles
            breaker_open = self._breaker_open
            if breaker_open:
                report = RefreshReport(
                    cycle, False, 0, error=self._last_error, aborted_by="circuit_breaker"
                )
                self._history.append(report)
        if breaker_open:
            self._metrics.incr("refresh_cycles")
            self._metrics.incr("refresh_skipped")
            self._loop.notify()
            return report

        self._metrics.incr("refresh_cycles")
        cycle_start = time.perf_counter()
        report = self._attempt_with_retries(cycle)
        self._metrics.observe("refresh_cycle", time.perf_counter() - cycle_start)

        with self._lock:
            if report.promoted:
                self._consecutive_failures = 0
                self._last_error = None
            else:
                self._consecutive_failures += 1
                self._last_error = report.error
                if self._consecutive_failures >= self._config.failure_threshold:
                    self._breaker_open = True
                    logger.error(
                        "circuit breaker OPEN after %d consecutive failed"
                        " cycles; old generation keeps serving",
                        self._consecutive_failures,
                    )
            failures = self._consecutive_failures
            breaker = self._breaker_open
            if report.drift is not None:
                self._last_drift = report.drift
            self._history.append(report)
        self._metrics.set_gauge("refresh_consecutive_failures", float(failures))
        self._metrics.set_gauge("refresh_breaker_open", float(breaker))
        self._metrics.set_info("refresh_last_error", report.error)
        if report.promoted:
            self._metrics.incr("refresh_promotions")
        else:
            self._metrics.incr("refresh_failures")
        self._loop.notify()
        return report

    def _attempt_with_retries(self, cycle: int) -> RefreshReport:
        attempts = 0
        while True:
            attempts += 1
            self._metrics.incr("refresh_attempts")
            try:
                drift, versions, phase_seconds = self._run_phases(cycle, attempts)
            except DriftGateError as exc:
                # Deterministic in the input data: retrying the same day
                # cannot pass the gate, so fail the cycle immediately.
                self._metrics.incr("refresh_drift_aborts")
                logger.warning("cycle %d: %s", cycle, exc)
                return RefreshReport(
                    cycle, False, attempts, exc.drift, error=str(exc), aborted_by="drift_gate"
                )
            except Exception as exc:  # noqa: BLE001 - isolate any failure
                logger.exception("cycle %d attempt %d failed", cycle, attempts)
                if attempts > self._config.max_retries:
                    error = f"{type(exc).__name__}: {exc}"
                    return RefreshReport(cycle, False, attempts, error=error)
                self._metrics.incr("refresh_retries")
                config = self._config
                delay = min(
                    config.backoff_cap,
                    config.backoff_base * config.backoff_factor ** (attempts - 1),
                )
                if config.jitter:
                    delay *= 1.0 + config.jitter * float(self._rng.uniform(-1.0, 1.0))
                logger.info(
                    "cycle %d: retrying in %.2fs (attempt %d/%d)",
                    cycle, delay, attempts + 1, config.max_retries + 1,
                )
                if self._loop.stopping.wait(delay):
                    error = "daemon stopped mid-retry"
                    return RefreshReport(cycle, False, attempts, error=error)
                continue
            return RefreshReport(cycle, True, attempts, drift, versions, phase_seconds)

    def _run_phases(
        self, cycle: int, attempt: int
    ) -> "tuple[float, list[int] | int, dict[str, float]]":
        """One attempt: ingest, then :func:`promotion_step` on the day."""
        phase_seconds: dict[str, float] = {}

        def enter(phase: str) -> None:
            if self._fault_hook is not None:
                self._fault_hook(phase, attempt)

        try:
            enter("ingest")
            start = time.perf_counter()
            day = self._dataset_source(cycle)
            phase_seconds["ingest"] = time.perf_counter() - start
            drift, versions = promotion_step(
                self._target, self._config, self._rng,
                lambda live: (_day_over(live, day),) * 2,
                lambda catalogue: (
                    None, place_new_items(self._store, catalogue.n_items), False
                ),
                gate=self._promote_gate, enter=enter, phase_seconds=phase_seconds,
            )
        finally:
            for phase, seconds in phase_seconds.items():
                self._metrics.observe(f"refresh_{phase}", seconds)
        logger.info(
            "cycle %d promoted generation %s (drift=%.4f)", cycle, versions, drift
        )
        return drift, versions, phase_seconds

    # ------------------------------------------------------------------
    # the background thread
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the refresh loop on a daemon thread (idempotent)."""
        if self._loop.start(self.run_once, self._config.interval):
            logger.info(
                "refresh daemon started (interval %.1fs)", self._config.interval
            )

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the loop; waits for an in-flight cycle to finish."""
        self._loop.stop(timeout)

    def wait_for_cycles(self, n: int, timeout: float = 30.0) -> bool:
        """Block until ``n`` total cycles have completed (True) or timeout."""
        return self._loop.wait_until(lambda: len(self.history) >= n, timeout)

    def __enter__(self) -> "RefreshDaemon":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def _day_over(live: "BehaviorDataset | None", day: BehaviorDataset) -> BehaviorDataset:
    """A nightly's one dataset: the live items and users (the live entry
    wins) extended by any the day lists, and the day's own sessions."""
    if live is None:
        return day
    return BehaviorDataset(
        [*live.items, *day.items[live.n_items:]],
        [*live.users, *day.users[live.n_users:]],
        day.sessions, validate=False,
    )


def bootstrap_day_source(
    dataset: BehaviorDataset, seed: "int | np.random.Generator | None" = 0
) -> Callable[[int], BehaviorDataset]:
    """A synthetic "today's data" feed: bootstrap-resampled sessions.

    Each cycle draws ``n_sessions`` sessions with replacement from the
    base dataset (a different draw per cycle), over the same item/user
    catalogue — the shape of a day of traffic without a live log
    pipeline.  The CLI, the benchmark and the example all use this.
    """
    rng = ensure_rng(seed)

    def source(cycle: int) -> BehaviorDataset:
        picks = rng.integers(0, len(dataset.sessions), size=len(dataset.sessions))
        sessions = [dataset.sessions[int(i)] for i in picks]
        return BehaviorDataset(
            dataset.items, dataset.users, sessions, validate=False
        )

    return source


def failing_build_hook(
    fail_phases: dict[str, int],
) -> Callable[[str, int], None]:
    """A canned fault injector: fail phase ``p`` on its first ``n`` calls.

    ``failing_build_hook({"build": 2})`` raises ``RuntimeError`` on the
    first two entries into the build phase, then behaves — the recipe
    the tests, the benchmark and ``sisg refresh-daemon --inject-failures``
    use to watch retry/backoff recover while the old generation serves.
    """
    remaining = dict(fail_phases)

    def hook(phase: str, attempt: int) -> None:
        left = remaining.get(phase, 0)
        if left > 0:
            remaining[phase] = left - 1
            raise RuntimeError(
                f"injected {phase} failure ({left - 1} more to come)"
            )

    return hook
