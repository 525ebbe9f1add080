"""The stream applier: micro-batch windows -> live serving mutations.

A window is a refresh whose day is the window: the applier runs the
nightly cycle's :func:`~repro.serving.refresh.promotion_step` on it,
scoped to what the window touched:

1. **grow** — events for never-seen items (they arrive carrying their
   Table-I side information) extend the item catalogue; the window's
   clicks are sessionized and warm-started on, which grows the
   vocabulary online and places new items at their Eq. 6 cold vectors;
2. **gate** — a window over the drift threshold (poisoned events, a
   runaway update) is *quarantined*: the cursor advances past it but
   nothing touches the store;
3. **build + promote** — under the caller's ``promote_gate``.  Sharded
   stores rebuild **only the touched shards** (the owners of
   clicked/new/moved items); newly hot items are re-routed across HBGP
   shards incrementally — individual moves, never a full re-partition.

The window's catalogue growth, sessions and click counts become the
applier's state only after the flip, so a window that fails anywhere
leaves them untouched.

Coexistence with the nightly :class:`~repro.serving.refresh.RefreshDaemon`:
before every window the applier compares the store's generation against
the one it last produced.  A mismatch means a nightly promote landed
underneath it, so it **resyncs** — re-seeds its model from the live
generation, drops accumulated stream state ("nightly wins"), and resets
its log cursor to the head.

Delivery from the :class:`~repro.streaming.events.EventLog` is
at-least-once; a replayed window (same ``[start, end)`` range) at or
below the ``applied_through`` watermark commits the cursor and does
nothing else, so deltas are never double-applied.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

# bench/trace.py wraps this module's bindings of these four names; the
# applier calls them through `promotion_step`.
from repro.core.incremental import embedding_drift, incremental_update  # noqa: F401
from repro.core.model import EmbeddingModel
from repro.data.schema import (
    AGE_BUCKETS,
    GENDERS,
    PURCHASE_POWERS,
    BehaviorDataset,
    ItemMeta,
    UserMeta,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.refresh import (
    DriftGateError,
    PeriodicLoop,
    PromotionConfig,
    promotion_step,
)
from repro.serving.sharding import build_shard_bundle  # noqa: F401
from repro.serving.sharding import freshest_model, serving_target
from repro.serving.store import build_bundle  # noqa: F401
from repro.streaming.events import EventLog
from repro.streaming.window import EventWindow, MicroBatchWindower, sessionize
from repro.utils import ensure_rng, get_logger, require, require_positive

logger = get_logger("streaming.applier")

#: Hard cap on how far one window may extend the user id space — a
#: window full of garbage user ids must not allocate gigabytes of
#: synthetic ``UserMeta``.
MAX_USER_GROWTH = 100_000


@dataclass
class StreamConfig(PromotionConfig):
    """Knobs of the micro-batch apply loop (plus
    :class:`~repro.serving.refresh.PromotionConfig`'s).

    Streaming continuations are tiny, so ``train_config.epochs`` is per
    *window*, not per day.  A window over ``drift_threshold`` is
    quarantined: unlike a nightly cycle it still advances the cursor —
    the stream must not wedge on one poisoned batch.

    Attributes
    ----------
    window_events:
        Maximum events per micro-batch window.
    max_session_len:
        Split per-user click runs at this length when sessionizing.
    rebalance_ratio, max_moves:
        Incremental hot-item re-routing for sharded stores: when the
        hottest shard carries more than ``rebalance_ratio`` times the
        mean streamed click load, up to ``max_moves`` of its hottest
        items move to the coldest shard (``rebalance_ratio=None``
        disables moves).
    cursor:
        Name of this applier's replay cursor in the event log.
    """

    window_events: int = 512
    max_session_len: int = 40
    rebalance_ratio: "float | None" = None
    max_moves: int = 8
    cursor: str = "stream-applier"

    def validate(self) -> None:
        super().validate()
        require_positive(self.window_events, "window_events")
        require_positive(self.max_session_len, "max_session_len")
        if self.rebalance_ratio is not None:
            require(self.rebalance_ratio > 1.0, "rebalance_ratio must be > 1")
        require(self.max_moves >= 0, "max_moves must be >= 0")


@dataclass
class WindowReport:
    """Outcome of one window's apply attempt."""

    window_id: int
    start: int
    end: int
    n_events: int = 0
    n_sessions: int = 0
    new_items: list = field(default_factory=list)
    applied: bool = False
    duplicate: bool = False
    quarantined: bool = False
    resynced: bool = False
    drift: "float | None" = None
    moves: list = field(default_factory=list)
    versions: "list[int] | int | None" = None
    apply_s: float = 0.0
    phase_seconds: dict = field(default_factory=dict)
    error: "str | None" = None

    def as_dict(self) -> dict:
        return {**asdict(self), "moves": [list(m) for m in self.moves]}


def _synthetic_user(user_id: int) -> UserMeta:
    """A deterministic stand-in profile for a never-seen user id."""
    return UserMeta(
        user_id=user_id,
        gender_idx=user_id % len(GENDERS),
        age_idx=user_id % len(AGE_BUCKETS),
        power_idx=user_id % len(PURCHASE_POWERS),
    )


class StreamApplier:
    """Applies event-log windows to a live store between nightly refreshes.

    Parameters
    ----------
    target:
        A store, or (preferred) a service wrapping one — the refresh
        daemon's contract: :func:`~repro.serving.sharding.serving_target`.
    log:
        The shared :class:`~repro.streaming.events.EventLog`.
    dataset:
        The catalogue/session state the live generation was built from;
        the applier extends a private copy of it window by window.
    config, metrics:
        Apply-loop knobs and the metrics sink (defaults to the service's
        own metrics, so one ``snapshot()`` shows serving and streaming).
    promote_gate:
        Optional ``promote_gate(flip)`` wrapper — the gateway's
        writer-priority swap gate — run around every pointer flip.
    seed:
        Randomness for warm-start initialization of new tokens.
    """

    def __init__(
        self,
        target,
        log: EventLog,
        dataset: BehaviorDataset,
        config: "StreamConfig | None" = None,
        metrics: "ServingMetrics | None" = None,
        promote_gate=None,
        seed: "int | np.random.Generator | None" = 0,
    ) -> None:
        self._config = config or StreamConfig()
        self._config.validate()
        self._target = target
        self._store, self._metrics = serving_target(target, metrics)
        self._log = log
        self._promote_gate = promote_gate
        self._rng = ensure_rng(seed)

        self._items = list(dataset.items)
        self._users = list(dataset.users)
        self._base_sessions = list(dataset.sessions)
        self._sessions = list(self._base_sessions)
        self._stream_clicks = np.zeros(len(self._items), dtype=np.int64)

        self._windower = MicroBatchWindower(
            log, cursor=self._config.cursor, max_events=self._config.window_events
        )
        self._applied_through = log.position(self._config.cursor)
        self._model = freshest_model(self._store.snapshot())
        self._expected = self._store.version
        self._last_apply_monotonic = time.monotonic()

        self._apply_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._loop = PeriodicLoop("stream-applier")
        self._ticks = 0
        self._history: list[WindowReport] = []

        self._metrics.set_gauge(
            "stream_lag_events", lambda: float(self._log.lag(self._config.cursor))
        )
        self._metrics.set_gauge(
            "stream_staleness_s", lambda: time.monotonic() - self._last_apply_monotonic
        )

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def model(self) -> EmbeddingModel:
        """The model behind the last streamed (or resynced) generation."""
        return self._model

    @property
    def dataset(self) -> BehaviorDataset:
        """The cumulative catalogue + sessions the applier has built up."""
        with self._state_lock:
            items, users, sessions = self._items, self._users, self._sessions
        return BehaviorDataset(list(items), list(users), list(sessions), validate=False)

    @property
    def catalogue_size(self) -> int:
        with self._state_lock:
            return len(self._items)

    @property
    def history(self) -> list[WindowReport]:
        with self._state_lock:
            return list(self._history)

    @property
    def windows_applied(self) -> int:
        return sum(1 for report in self.history if report.applied)

    # ------------------------------------------------------------------
    # reconcile with the nightly refresh
    # ------------------------------------------------------------------

    def _maybe_resync(self) -> bool:
        """Detect an external (nightly) promote and yield to it.

        The nightly generation was built from the full day's data — it
        supersedes every streamed delta.  Re-seed the model from the
        live store, drop accumulated stream sessions and click counts,
        and reset the cursor to the log head: events already appended
        are presumed folded into the nightly build.
        """
        if self._store.version == self._expected:
            return False
        self._model = freshest_model(self._store.snapshot())
        with self._state_lock:
            self._sessions = list(self._base_sessions)
            self._stream_clicks = np.zeros(len(self._items), dtype=np.int64)
        head = self._log.reset(self._config.cursor)
        self._applied_through = head
        self._expected = self._store.version
        self._metrics.incr("stream_resyncs")
        logger.info(
            "external promote detected (now %s); stream resynced to offset %d",
            self._expected, head,
        )
        return True

    # ------------------------------------------------------------------
    # the apply loop
    # ------------------------------------------------------------------

    def apply_next(self) -> "WindowReport | None":
        """Apply the next pending window; ``None`` when caught up.

        Never raises: a window that fails to apply is quarantined (the
        cursor advances past it) and reported, so one poisoned batch
        cannot wedge the stream.
        """
        with self._apply_lock:
            resynced = self._maybe_resync()
            window = self._windower.next_window()
            if window is None:
                return None
            report = self._apply_window(window)
            report.resynced = resynced or report.resynced
        with self._state_lock:
            self._history.append(report)
        self._loop.notify()
        return report

    def run_pending(self, max_windows: "int | None" = None) -> list[WindowReport]:
        """Apply windows until the log is drained (or ``max_windows``)."""
        reports: list[WindowReport] = []
        while max_windows is None or len(reports) < max_windows:
            report = self.apply_next()
            if report is None:
                break
            reports.append(report)
        return reports

    def _apply_window(self, window: EventWindow) -> WindowReport:
        report = WindowReport(window.window_id, window.start, window.end, window.n_events)
        # At-least-once replay guard: a window at or below the watermark
        # was already applied in full; committing the cursor is the only
        # thing the lost commit needed.
        if window.end <= self._applied_through:
            report.duplicate = True
            self._windower.commit(window)
            self._metrics.incr("stream_duplicate_windows")
            return report

        start_time = time.perf_counter()
        try:
            self._apply_live(window, report)
        except Exception as exc:  # noqa: BLE001 - quarantine, don't wedge
            report.quarantined = True
            report.error = f"{type(exc).__name__}: {exc}"
            self._windower.commit(window)
            self._applied_through = window.end
            self._metrics.incr("stream_quarantined_windows")
            self._metrics.set_info("stream_last_error", report.error)
            logger.warning(
                "window [%d, %d) quarantined: %s", window.start, window.end, report.error
            )
        report.apply_s = time.perf_counter() - start_time
        if report.applied:
            self._metrics.observe("stream_apply", report.apply_s)
        return report

    def _apply_live(self, window: EventWindow, report: WindowReport) -> None:
        events = window.events
        clicked = np.fromiter((e.item_id for e in events), np.int64, len(events))
        require(clicked.min(initial=0) >= 0, "window carries a negative item id")
        sessions = sessionize(events, max_len=self._config.max_session_len)
        report.n_sessions = len(sessions)
        items, users, report.new_items = self._extend_catalogue(window)
        all_sessions = self._sessions + sessions
        clicks = np.bincount(clicked, minlength=len(items))
        clicks[: len(self._stream_clicks)] += self._stream_clicks

        def plan() -> "tuple[set[int], np.ndarray, bool]":
            assignment, report.moves = self._plan_partition(clicks)
            if report.moves:
                self._metrics.incr("stream_moves", len(report.moves))
            touched = self._touched_shards(clicked, assignment, report.moves)
            return touched, assignment, bool(report.moves)

        try:
            model, report.drift, versions, _ = promotion_step(
                self._target, self._model,
                BehaviorDataset(items, users, sessions, validate=False),
                self._config, self._rng, plan,
                catalogue=BehaviorDataset(items, users, all_sessions, validate=False),
                gate=self._promote_gate, phase_seconds=report.phase_seconds,
            )
        except DriftGateError as exc:
            report.drift = exc.drift
            raise
        finally:
            if report.drift is not None:
                self._metrics.set_gauge("stream_last_drift", report.drift)

        # Flipped: only now does the window's state become the applier's.
        with self._state_lock:
            self._items, self._users = items, users
            self._sessions = all_sessions
            self._stream_clicks = clicks
        self._model = model
        self._expected = versions
        self._applied_through = window.end
        self._windower.commit(window)
        self._last_apply_monotonic = time.monotonic()
        report.applied = True
        report.versions = versions

        self._metrics.incr("stream_windows_applied")
        self._metrics.incr("stream_events_applied", window.n_events)
        self._metrics.incr("stream_new_items", len(report.new_items))
        logger.info(
            "window [%d, %d): %d events, %d sessions, %d new items,"
            " drift %.4f -> versions %s",
            window.start, window.end, window.n_events, len(sessions),
            len(report.new_items), report.drift, versions,
        )

    def _extend_catalogue(
        self, window: EventWindow
    ) -> "tuple[list[ItemMeta], list[UserMeta], list[int]]":
        """Candidate catalogue copies including the window's new entities.

        Returned as *candidates* — committed to the applier's state only
        after the window's generation is flipped, so a window that fails
        anywhere can never poison the catalogue either.
        """
        n_items = len(self._items)
        described: dict[int, dict] = {}
        max_user = len(self._users) - 1
        for event in window.events:
            if event.item_id >= n_items:
                if event.si_values is not None:
                    described.setdefault(event.item_id, dict(event.si_values))
                elif event.item_id not in described:
                    raise ValueError(
                        f"event for unseen item {event.item_id} carries no"
                        " side information"
                    )
            max_user = max(max_user, event.user_id)

        new_ids = sorted(described)
        if new_ids:
            expected = list(range(n_items, n_items + len(new_ids)))
            if new_ids != expected:
                raise ValueError(
                    f"new item ids {new_ids} do not extend the catalogue"
                    f" contiguously from {n_items}"
                )
        cand_items = self._items + [
            ItemMeta(item_id, described[item_id]) for item_id in new_ids
        ]

        growth = max_user + 1 - len(self._users)
        require(
            growth <= MAX_USER_GROWTH,
            f"window grows the user space by {growth} (> {MAX_USER_GROWTH})",
        )
        cand_users = self._users + [
            _synthetic_user(uid) for uid in range(len(self._users), max_user + 1)
        ]
        return cand_items, cand_users, new_ids

    # ------------------------------------------------------------------
    # build + promote
    # ------------------------------------------------------------------

    def _touched_shards(
        self, clicked: np.ndarray, assignment: np.ndarray, moves: list
    ) -> set[int]:
        """The shards one window rebuilds: the owners of its clicked and
        new items, and both ends of every move."""
        owners = np.concatenate(
            [assignment[clicked], assignment[len(self._store.item_partition):]]
        )
        ends = [shard for _item, src, dst in moves for shard in (src, dst)]
        return set(np.unique(owners).tolist()) | set(ends)

    def _plan_partition(
        self, clicks: np.ndarray
    ) -> "tuple[np.ndarray, list[tuple[int, int, int]]]":
        """Extend the item -> shard map; re-route streamed hot items.

        ``clicks`` is the streamed click count of every item, the
        window's included.  New items land on the lightest shard (by
        item count).  When the hottest shard's *streamed* click load
        exceeds ``rebalance_ratio`` times the mean, up to ``max_moves``
        of its hottest items move to the coldest shard — individual
        moves against the live map, never a full re-partition.  A move
        is taken only if it lowers the hottest shard's load (no
        oscillation).
        """
        old = self._store.item_partition
        n_shards = self._store.n_shards
        n_items = len(clicks)
        assignment = np.empty(n_items, dtype=np.int64)
        assignment[: len(old)] = old
        loads = np.bincount(old, minlength=n_shards)
        for item in range(len(old), n_items):
            shard = int(np.argmin(loads))
            assignment[item] = shard
            loads[shard] += 1

        moves: list[tuple[int, int, int]] = []
        if self._config.rebalance_ratio is None or n_shards < 2:
            return assignment, moves
        hot = np.bincount(assignment, weights=clicks, minlength=n_shards)
        while len(moves) < self._config.max_moves:
            total = float(hot.sum())
            if total <= 0:
                break
            mean = total / n_shards
            src = int(np.argmax(hot))
            if hot[src] <= self._config.rebalance_ratio * max(mean, 1e-12):
                break
            dst = int(np.argmin(hot))
            candidates = np.flatnonzero(assignment == src)
            if not len(candidates):
                break
            cand_clicks = clicks[candidates]
            if int(cand_clicks.max(initial=0)) <= 0:
                break
            item = int(candidates[int(np.argmax(cand_clicks))])
            weight = float(clicks[item])
            if max(hot[src] - weight, hot[dst] + weight) >= hot[src]:
                break
            assignment[item] = dst
            hot[src] -= weight
            hot[dst] += weight
            moves.append((item, src, dst))
        return assignment, moves

    # ------------------------------------------------------------------
    # the background thread
    # ------------------------------------------------------------------

    def start(self, interval: float, event_source=None) -> "StreamApplier":
        """Drain + apply every ``interval`` seconds on a daemon thread.

        ``event_source(tick) -> list[ClickEvent]`` (optional) is polled
        once per tick and its events appended to the log first — the
        hook the CLI uses to synthesize live traffic.
        """
        require_positive(interval, "interval")
        if self._loop.start(lambda: self._tick(event_source), interval):
            logger.info("stream applier started (every %.2fs)", interval)
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._loop.stop(timeout)

    def wait_for_windows(self, n: int, timeout: float = 30.0) -> bool:
        """Block until ``n`` windows have *applied* (True) or timeout."""
        return self._loop.wait_until(lambda: self.windows_applied >= n, timeout)

    def __enter__(self) -> "StreamApplier":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _tick(self, event_source) -> None:
        if event_source is not None:
            events = event_source(self._ticks)
            if events:
                self._log.extend(events)
        self._ticks += 1
        self.run_pending()
