"""The stream applier: micro-batch windows -> live serving mutations.

A window is a refresh whose day is the window: the applier runs the
nightly cycle's :func:`~repro.serving.refresh.promotion_step` on it,
scoped to what the window touched:

1. **grow** — events for never-seen items (they arrive carrying their
   Table-I side information) extend the live catalogue; the window's
   clicks are sessionized and warm-started on, which grows the
   vocabulary online and places new items at their Eq. 6 cold vectors;
2. **gate** — a window over the drift threshold (poisoned events, a
   runaway update) is *quarantined*: the cursor advances past it but
   nothing touches the store;
3. **build + promote** — under the caller's ``promote_gate``.  Sharded
   stores rebuild **only the touched shards** (the owners of
   clicked/new/moved items); newly hot items are re-routed across HBGP
   shards incrementally — individual moves, never a full re-partition.

The applier holds no model or catalogue of its own: each window reads
the live ones from the store under its writer lock and installs the
grown catalogue in its own flip.  A window that fails changes nothing,
and a nightly :class:`~repro.serving.refresh.RefreshDaemon` promotion
(or any other flip) is simply the next window's base.  The applier keeps
only policy: the cursor and watermark, quarantine, and the streamed
click tallies that drive rebalancing.

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
    place_new_items,
    promotion_step,
)
from repro.serving.sharding import build_shard_bundle  # noqa: F401
from repro.serving.sharding import serving_target
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
        The catalogue the live generation was built from, used only
        until the store holds one (a store built by hand from a bundle
        has none until its first promotion).
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

        self._dataset = dataset
        #: Streamed clicks per item, the rebalance policy's load signal.
        self._stream_clicks = np.zeros(0, dtype=np.int64)

        self._windower = MicroBatchWindower(
            log, cursor=self._config.cursor, max_events=self._config.window_events
        )
        self._applied_through = log.position(self._config.cursor)
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
        """The live generation's model."""
        return self._store.model

    @property
    def dataset(self) -> BehaviorDataset:
        """The live catalogue (items, users, sessions)."""
        live = self._store.catalogue
        return self._dataset if live is None else live

    @property
    def catalogue_size(self) -> int:
        return self.dataset.n_items

    @property
    def history(self) -> list[WindowReport]:
        with self._state_lock:
            return list(self._history)

    @property
    def windows_applied(self) -> int:
        return sum(1 for report in self.history if report.applied)

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
            window = self._windower.next_window()
            if window is None:
                return None
            report = self._apply_window(window)
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
        clicks = self._stream_clicks

        def inputs(live: "BehaviorDataset | None"):
            live = self._dataset if live is None else live
            items, users, report.new_items = self._extend_catalogue(live, window)
            return (
                BehaviorDataset(items, users, sessions, validate=False),
                BehaviorDataset(
                    items, users, [*live.sessions, *sessions], validate=False
                ),
            )

        def plan(catalogue: BehaviorDataset) -> "tuple[set[int], np.ndarray, bool]":
            nonlocal clicks
            clicks = np.bincount(clicked, minlength=catalogue.n_items)
            clicks[: len(self._stream_clicks)] += self._stream_clicks
            assignment, report.moves = self._plan_partition(clicks)
            if report.moves:
                self._metrics.incr("stream_moves", len(report.moves))
            touched = self._touched_shards(clicked, assignment, report.moves)
            return touched, assignment, bool(report.moves)

        try:
            report.drift, versions = promotion_step(
                self._target, self._config, self._rng, inputs, plan,
                gate=self._promote_gate, phase_seconds=report.phase_seconds,
            )
        except DriftGateError as exc:
            report.drift = exc.drift
            raise
        finally:
            if report.drift is not None:
                self._metrics.set_gauge("stream_last_drift", report.drift)

        self._stream_clicks = clicks
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

    @staticmethod
    def _extend_catalogue(
        live: BehaviorDataset, window: EventWindow
    ) -> "tuple[list[ItemMeta], list[UserMeta], list[int]]":
        """Copies of the live items and users plus the window's new ones;
        they become store state only in the window's own flip."""
        n_items = live.n_items
        described: dict[int, dict] = {}
        max_user = live.n_users - 1
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
        items = [*live.items] + [ItemMeta(i, described[i]) for i in new_ids]

        growth = max_user + 1 - live.n_users
        require(
            growth <= MAX_USER_GROWTH,
            f"window grows the user space by {growth} (> {MAX_USER_GROWTH})",
        )
        users = [*live.users] + [
            _synthetic_user(uid) for uid in range(live.n_users, max_user + 1)
        ]
        return items, users, new_ids

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
        assignment = place_new_items(self._store, len(clicks))
        n_shards = self._store.n_shards

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
