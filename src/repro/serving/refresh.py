"""The nightly refresh daemon: ingest → warm-start → build → promote.

The paper's deployment recomputes *all* embeddings daily (Sec. V); EGES
(KDD'18) describes the same cadence — an offline build feeding an online
swap every night.  Until now this repo's refresh loop was hand-cranked:
:func:`~repro.core.incremental.incremental_update`,
:func:`~repro.serving.store.build_bundle` and
:meth:`~repro.serving.store.ModelStore.swap` existed but nothing wired
them together, and a build that threw mid-cycle left no retry, no
backoff and no report.

:class:`RefreshDaemon` runs the cycle on a background thread with
production-shaped robustness:

- **retry with exponential backoff + jitter** — transient failures
  (a flaky data source, an OOM-killed build) are retried up to
  ``max_retries`` times inside one cycle;
- **circuit breaker** — after ``failure_threshold`` *consecutive* failed
  cycles the daemon stops attempting and keeps the old generation
  serving (graceful degradation: a stale bundle beats a torn one) until
  :meth:`RefreshDaemon.reset_breaker`;
- **drift gate** — a cycle whose
  :func:`~repro.core.incremental.embedding_drift` exceeds
  ``drift_threshold`` aborts *before* promotion: a large day-over-day
  drift usually means bad input data, and promoting it would churn every
  downstream candidate list at once;
- **never a torn promotion** — all artifacts (every shard's bundle, in
  the sharded case) are built before the first pointer flip, so a
  failure anywhere in the expensive half leaves every shard on the
  previous generation.

Observability flows through the shared
:class:`~repro.serving.metrics.ServingMetrics`: per-phase latency
histograms (``refresh_ingest`` / ``refresh_train`` / ``refresh_build`` /
``refresh_promote`` / ``refresh_cycle``), counters (cycles, promotions,
failures, retries, drift aborts), gauges (consecutive failures, breaker
state, live-generation age) and the last error string — all of which
surface in ``MatchingService.snapshot()`` when the daemon is constructed
over a service.

A ``fault_hook`` is called at the start of every phase so tests,
``benchmarks/bench_refresh.py`` and the CLI can inject build failures
and watch the daemon degrade gracefully and recover.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.incremental import embedding_drift, incremental_update
from repro.core.model import EmbeddingModel
from repro.core.sgns import SGNSConfig
from repro.core.vocab import TokenKind
from repro.data.schema import BehaviorDataset
from repro.serving.metrics import ServingMetrics
from repro.serving.sharding import freshest_model, promote, serving_target
# bench/trace.py wraps this module's bindings of the two builders.
from repro.serving.sharding import build_shard_bundle  # noqa: F401
from repro.serving.store import build_bundle  # noqa: F401
from repro.utils import ensure_rng, get_logger, require, require_positive

logger = get_logger("serving.refresh")

#: Phase names, in cycle order (also the histogram names, prefixed
#: ``refresh_``).
PHASES: tuple[str, ...] = ("ingest", "train", "build", "promote")


@dataclass
class RefreshConfig:
    """Knobs of the nightly refresh cycle.

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
    drift_threshold:
        Abort promotion when the day-over-day
        :func:`~repro.core.incremental.embedding_drift` exceeds this
        (``None`` disables the gate).
    drift_kind:
        Token population the drift gate measures (default: item tokens,
        the population that feeds candidate tables).
    lr_decay, train_config:
        Passed to :func:`~repro.core.incremental.incremental_update`;
        the warm start trains in ``train_config.dtype``.
    build_kwargs:
        Extra keyword arguments for the bundle build (``n_cells``,
        ``table_coverage``, ...).
    """

    interval: float = 86400.0
    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_cap: float = 60.0
    jitter: float = 0.1
    failure_threshold: int = 3
    drift_threshold: float | None = None
    drift_kind: TokenKind | None = TokenKind.ITEM
    lr_decay: float = 0.5
    train_config: SGNSConfig | None = None
    build_kwargs: dict = field(default_factory=dict)

    def validate(self) -> None:
        require_positive(self.interval, "interval")
        require(self.max_retries >= 0, "max_retries must be >= 0")
        require_positive(self.backoff_base, "backoff_base")
        require(self.backoff_factor >= 1.0, "backoff_factor must be >= 1")
        require_positive(self.backoff_cap, "backoff_cap")
        require(0.0 <= self.jitter < 1.0, "jitter must be in [0, 1)")
        require_positive(self.failure_threshold, "failure_threshold")
        if self.drift_threshold is not None:
            require_positive(self.drift_threshold, "drift_threshold")


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

    @property
    def ok(self) -> bool:
        return self.promoted

    def as_dict(self) -> dict:
        """JSON-serializable form (used by CLI / bench reports)."""
        return {
            "cycle": self.cycle,
            "promoted": self.promoted,
            "attempts": self.attempts,
            "drift": self.drift,
            "versions": self.versions,
            "phase_seconds": dict(self.phase_seconds),
            "error": self.error,
            "aborted_by": self.aborted_by,
        }


class DriftGateError(RuntimeError):
    """Raised internally when the drift gate rejects a cycle."""

    def __init__(self, drift: float, threshold: float) -> None:
        super().__init__(
            f"embedding drift {drift:.4f} exceeds threshold {threshold:.4f};"
            " keeping the previous generation"
        )
        self.drift = drift


class RefreshDaemon:
    """Runs the nightly refresh cycle against a store or a live service.

    Parameters
    ----------
    target:
        What to refresh: a :class:`~repro.serving.store.ModelStore`, a
        :class:`~repro.serving.sharding.ShardedModelStore`, or a service
        wrapping either (anything with ``.recommend`` and ``.store``).
        Passing the *service* is preferred — swaps then go through
        :meth:`MatchingService.swap_shard` so an attached worker pool
        stays in sync, and refresh metrics land on the service's own
        :class:`ServingMetrics` (one ``snapshot()`` shows both sides).
        See :func:`~repro.serving.sharding.serving_target`.
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
        Optional wrapper the promote phase runs inside:
        ``promote_gate(flip)`` must call ``flip()`` exactly once and
        return its result.  The network gateway passes its
        :meth:`~repro.serving.gateway.RecommendGateway.swap_gate` here so
        a promotion waits for in-flight coalesced batches and never
        tears a request mid-swap.
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
        self._model = freshest_model(self._store.snapshot())

        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._cycle_done = threading.Condition()
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
    def model(self) -> EmbeddingModel:
        """The model of the live generation (updates on promotion)."""
        return self._model

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
                "running": self._thread is not None and self._thread.is_alive(),
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
                    cycle=cycle,
                    promoted=False,
                    attempts=0,
                    aborted_by="circuit_breaker",
                    error=self._last_error,
                )
                self._history.append(report)
        if breaker_open:
            self._metrics.incr("refresh_cycles")
            self._metrics.incr("refresh_skipped")
            with self._cycle_done:
                self._cycle_done.notify_all()
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
            self._last_drift = (
                report.drift if report.drift is not None else self._last_drift
            )
            self._history.append(report)
        self._metrics.set_gauge("refresh_consecutive_failures", float(failures))
        self._metrics.set_gauge("refresh_breaker_open", float(breaker))
        self._metrics.set_info("refresh_last_error", report.error)
        if report.promoted:
            self._metrics.incr("refresh_promotions")
        else:
            self._metrics.incr("refresh_failures")
        with self._cycle_done:
            self._cycle_done.notify_all()
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
                    cycle=cycle,
                    promoted=False,
                    attempts=attempts,
                    drift=exc.drift,
                    error=str(exc),
                    aborted_by="drift_gate",
                )
            except Exception as exc:  # noqa: BLE001 - isolate any failure
                logger.exception(
                    "cycle %d attempt %d failed", cycle, attempts
                )
                if attempts > self._config.max_retries:
                    return RefreshReport(
                        cycle=cycle,
                        promoted=False,
                        attempts=attempts,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                self._metrics.incr("refresh_retries")
                delay = min(
                    self._config.backoff_cap,
                    self._config.backoff_base
                    * self._config.backoff_factor ** (attempts - 1),
                )
                if self._config.jitter:
                    delay *= 1.0 + self._config.jitter * float(
                        self._rng.uniform(-1.0, 1.0)
                    )
                logger.info(
                    "cycle %d: retrying in %.2fs (attempt %d/%d)",
                    cycle,
                    delay,
                    attempts + 1,
                    self._config.max_retries + 1,
                )
                if self._stop.wait(delay):
                    return RefreshReport(
                        cycle=cycle,
                        promoted=False,
                        attempts=attempts,
                        error="daemon stopped mid-retry",
                    )
                continue
            return RefreshReport(
                cycle=cycle,
                promoted=True,
                attempts=attempts,
                drift=drift,
                versions=versions,
                phase_seconds=phase_seconds,
            )

    def _run_phases(
        self, cycle: int, attempt: int
    ) -> "tuple[float | None, list[int] | int, dict[str, float]]":
        """One attempt: ingest → train (+drift gate) → build → promote."""
        phase_seconds: dict[str, float] = {}

        def enter(phase: str) -> float:
            if self._fault_hook is not None:
                self._fault_hook(phase, attempt)
            return time.perf_counter()

        start = enter("ingest")
        dataset = self._dataset_source(cycle)
        phase_seconds["ingest"] = time.perf_counter() - start
        self._metrics.observe("refresh_ingest", phase_seconds["ingest"])

        start = enter("train")
        previous = self._model
        updated = incremental_update(
            previous,
            dataset,
            config=self._config.train_config,
            lr_decay=self._config.lr_decay,
            seed=self._rng,
        )
        drift: float | None = None
        if self._config.drift_threshold is not None:
            drift = embedding_drift(
                previous, updated, kind=self._config.drift_kind
            )
            if drift > self._config.drift_threshold:
                raise DriftGateError(drift, self._config.drift_threshold)
        phase_seconds["train"] = time.perf_counter() - start
        self._metrics.observe("refresh_train", phase_seconds["train"])

        start = enter("build")
        # Every bundle is built before `promote` flips the first one, so
        # a failure here can never tear a promotion.
        artifacts = self._store.build_generation(
            updated,
            dataset,
            partition=self._extend_partition(dataset),
            **self._config.build_kwargs,
        )
        phase_seconds["build"] = time.perf_counter() - start
        self._metrics.observe("refresh_build", phase_seconds["build"])

        start = enter("promote")
        versions = promote(self._target, *artifacts, gate=self._promote_gate)
        self._model = updated
        phase_seconds["promote"] = time.perf_counter() - start
        self._metrics.observe("refresh_promote", phase_seconds["promote"])
        logger.info(
            "cycle %d promoted generation %s (drift=%s)",
            cycle,
            versions,
            f"{drift:.4f}" if drift is not None else "n/a",
        )
        return drift, versions, phase_seconds

    def _extend_partition(self, dataset: BehaviorDataset) -> np.ndarray:
        """Today's item -> shard map: old items keep their shard, newly
        listed items are spread round-robin."""
        old = self._store.item_partition
        listed = np.arange(len(old), dataset.n_items) % self._store.n_shards
        return np.concatenate([old, listed])

    # ------------------------------------------------------------------
    # the background thread
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the refresh loop on a daemon thread (idempotent)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="refresh-daemon", daemon=True
            )
            self._thread.start()
        logger.info(
            "refresh daemon started (interval %.1fs)", self._config.interval
        )

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the loop; waits for an in-flight cycle to finish."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        self._thread = None

    def wait_for_cycles(self, n: int, timeout: float = 30.0) -> bool:
        """Block until ``n`` total cycles have completed (True) or timeout."""
        deadline = time.monotonic() + timeout
        with self._cycle_done:
            while True:
                with self._lock:
                    done = len(self._history)
                if done >= n:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cycle_done.wait(remaining)

    def __enter__(self) -> "RefreshDaemon":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.is_set():
            cycle_start = time.perf_counter()
            try:
                self.run_once()
            except Exception:  # noqa: BLE001 - the loop must survive
                logger.exception("refresh cycle raised unexpectedly")
            elapsed = time.perf_counter() - cycle_start
            sleep = max(self._config.interval - elapsed, 0.0)
            if self._stop.wait(sleep):
                break


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
