"""The discrete-event simulation loop.

:class:`Simulator` owns the clock and the event heap and dispatches
events to handlers registered per :class:`~repro.engine.events.EventKind`.
It is intentionally minimal — all batch-system semantics live in
:mod:`repro.slurm.manager`, which is just another handler client.

Diagnostics hooks (all inert unless armed):

* an optional flight ring keeps the last ``ring_size`` dispatched
  :class:`~repro.engine.events.Event` objects (one bounded-deque
  append each), so crashes carry the recent history;
* a wall-clock watchdog bounds the real time one :meth:`run` call may
  consume before raising :class:`~repro.errors.WatchdogError`;
* a simulated-time progress guard bounds how many events may dispatch
  at a single timestamp, catching zero-delay livelocks long before the
  lifetime ``max_events`` backstop would.

Preemption hooks (see :mod:`repro.snapshot`, both inert unless armed):

* a *suspend poll* checked before every dispatch raises
  :class:`~repro.errors.SuspendRequested` at a clean event boundary,
  so SIGTERM/SIGINT can suspend a run without corrupting state;
* an *auto-snapshotter* invoked after every dispatch periodically
  serialises the complete simulation state to disk.

Both hooks — and the transient run-loop fields — are excluded from
pickling, so a :meth:`snapshot` taken mid-run restores to a clean,
re-runnable simulator.  So is what the flight ring holds: it pickles
as an empty ring of the same capacity.
"""

from __future__ import annotations

import pickle
import time as _wallclock
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.engine.events import Event, EventKind
from repro.engine.heap import EventHeap
from repro.errors import (
    MaxEventsError,
    SimulationError,
    SuspendRequested,
    WatchdogError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.profiler import HotLoopProfiler
    from repro.snapshot.auto import AutoSnapshotter

Handler = Callable[["Simulator", Event], None]

#: Default lifetime dispatch budget (livelock backstop).
DEFAULT_MAX_EVENTS = 50_000_000


class Simulator:
    """Single-threaded discrete-event simulator.

    Parameters
    ----------
    max_events:
        Safety valve: raise :class:`~repro.errors.MaxEventsError` after
        this many dispatches (guards against livelock in faulty
        strategies).
    ring_size:
        Capacity of the flight ring, the last dispatched events kept
        for crash reports; ``None`` keeps none.
    wall_clock_limit_s:
        Real-time budget for one :meth:`run` call; ``None`` disables
        the wall-clock watchdog.
    stall_event_limit:
        Maximum dispatches at one simulated timestamp before the
        progress guard fires; ``None`` disables it.
    profiler:
        Optional :class:`~repro.observability.HotLoopProfiler` fed the
        wall-clock cost of every handler dispatch, keyed by event
        kind.  Inert when ``None`` (the default): the hot path then
        reads no clock, only ``is not None`` tests.
    """

    #: Called first by :meth:`__getstate__`, before anything the heap
    #: reaches is pickled, and never pickled itself: the owner writes
    #: state it keeps lazily into the objects its events carry (the
    #: manager flushes the queue's pending priorities).
    before_pickle: Callable[[], None] | None = None

    def __init__(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        ring_size: int | None = None,
        wall_clock_limit_s: float | None = None,
        stall_event_limit: int | None = None,
        profiler: "HotLoopProfiler | None" = None,
    ):
        self.now: float = 0.0
        #: Time of the last dispatched event (``now`` may have moved
        #: past it to a ``run(until=...)`` bound); None before any.
        self.last_event_time: float | None = None
        self.heap = EventHeap()
        self.max_events = int(max_events)
        #: The flight ring: the last dispatched events, oldest first.
        self.flight_ring: deque[Event] | None = (
            deque(maxlen=ring_size) if ring_size is not None else None
        )
        self.wall_clock_limit_s = wall_clock_limit_s
        self.stall_event_limit = stall_event_limit
        self.profiler = profiler
        self.events_dispatched = 0
        self._handlers: dict[EventKind, list[Handler]] = {}
        self._running = False
        self._stop_requested = False
        self._wall_deadline: float | None = None
        self._stall_anchor: float = -1.0
        self._stall_count = 0
        self._suspend_poll: Callable[[], bool] | None = None
        self._autosnap: "AutoSnapshotter | None" = None

    # ------------------------------------------------------------------
    # Registration and scheduling
    # ------------------------------------------------------------------
    def on(self, kind: EventKind, handler: Handler) -> None:
        """Register *handler* for events of *kind* (append order kept)."""
        self._handlers.setdefault(kind, []).append(handler)

    def schedule(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Queue a new event at absolute simulated *time*.

        Scheduling in the past is an error: it indicates a bookkeeping
        bug (e.g. a stale remaining-work update), never a valid policy.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule {kind.name} at t={time:.6f} < now={self.now:.6f}"
            )
        return self.heap.push(Event(time=time, kind=kind, payload=payload))

    def schedule_in(self, delay: float, kind: EventKind, payload: Any = None) -> Event:
        """Queue a new event *delay* seconds from now."""
        return self.schedule(self.now + delay, kind, payload)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy deletion)."""
        self.heap.cancel(event)

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Preemption hooks and snapshotting
    # ------------------------------------------------------------------
    def set_suspend_poll(self, poll: Callable[[], bool] | None) -> None:
        """Arm (or disarm with ``None``) the cooperative suspend poll.

        The poll is evaluated before each dispatch; returning True
        raises :class:`~repro.errors.SuspendRequested` with the queue
        intact, so a snapshot taken at that moment resumes exactly
        where the run left off.
        """
        self._suspend_poll = poll

    def set_autosnapshotter(self, snapshotter: "AutoSnapshotter | None") -> None:
        """Arm (or disarm) the periodic state snapshotter."""
        self._autosnap = snapshotter

    def detach(self) -> None:
        """Drop the handlers and hooks.  They hold their owners, which
        hold this simulator, so a finished run is then freed by
        reference counting instead of waiting for the cyclic garbage
        collector.  The simulator cannot run afterwards."""
        self._handlers.clear()
        self.before_pickle = None
        self._suspend_poll = None
        self._autosnap = None

    def snapshot(self) -> bytes:
        """Serialise the full event-loop world — heap, clock, counters
        and every registered handler's object graph — to bytes.

        Because handlers are bound methods, the owning manager (jobs,
        cluster, queue, accounting, collectors, RNG streams) travels
        with the simulator; :meth:`restore` brings the whole world
        back with object identities preserved.
        """
        return pickle.dumps(self, protocol=4)

    @classmethod
    def restore(cls, blob: bytes) -> "Simulator":
        """Rebuild a simulator from :meth:`snapshot` output."""
        sim = pickle.loads(blob)
        if not isinstance(sim, cls):
            raise SimulationError(
                f"snapshot does not contain a {cls.__name__} "
                f"(got {type(sim).__name__})"
            )
        return sim

    def __getstate__(self) -> dict:
        """Pickle without the transient run-loop/hook state, so a
        snapshot taken *inside* :meth:`run` restores re-runnable, and
        with the flight ring empty: a crash report's history is not
        simulation state."""
        if self.before_pickle is not None:
            self.before_pickle()
        state = self.__dict__.copy()
        state.pop("before_pickle", None)
        state["_running"] = False
        state["_stop_requested"] = False
        state["_wall_deadline"] = None
        state["_suspend_poll"] = None
        state["_autosnap"] = None
        if self.flight_ring is not None:
            state["flight_ring"] = deque(maxlen=self.flight_ring.maxlen)
        return state

    # ------------------------------------------------------------------
    # Watchdogs
    # ------------------------------------------------------------------
    def _check_progress_guard(self) -> None:
        """Simulated-time progress guard (called with ``now`` updated)."""
        if self.now != self._stall_anchor:
            self._stall_anchor = self.now
            self._stall_count = 1
            return
        self._stall_count += 1
        if self._stall_count > self.stall_event_limit:  # type: ignore[operator]
            raise WatchdogError(
                f"progress watchdog: {self._stall_count} events dispatched "
                f"at t={self.now:.6f} without the clock advancing "
                f"(stall_event_limit={self.stall_event_limit}); "
                f"likely a zero-delay event loop",
                kind="sim_progress",
                sim_time=self.now,
                events_dispatched=self.events_dispatched,
            )

    def _check_wall_clock(self) -> None:
        """Wall-clock watchdog (called from the run loop when armed)."""
        if _wallclock.perf_counter() >= self._wall_deadline:  # type: ignore[operator]
            raise WatchdogError(
                f"wall-clock watchdog: run() exceeded "
                f"{self.wall_clock_limit_s:.3f}s after "
                f"{self.events_dispatched} events at t={self.now:.6f}",
                kind="wall_clock",
                sim_time=self.now,
                events_dispatched=self.events_dispatched,
            )

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def step(self) -> Event:
        """Dispatch exactly one event and return it."""
        event = self.heap.pop()
        if event.time < self.now:
            raise SimulationError(
                f"time moved backwards: {event!r} while now={self.now:.6f}"
            )
        self.now = self.last_event_time = event.time
        self.events_dispatched += 1
        if self.events_dispatched > self.max_events:
            from repro.diagnostics.crash import flight_records

            raise MaxEventsError(
                f"exceeded max_events={self.max_events} at t={self.now:.6f} "
                f"({self.events_dispatched} dispatched, "
                f"{len(self.heap)} queued); likely a scheduling livelock",
                sim_time=self.now,
                events_dispatched=self.events_dispatched,
                max_events=self.max_events,
                flight_tail=flight_records(self, last=32),
            )
        if self.stall_event_limit is not None:
            self._check_progress_guard()
        if self.flight_ring is not None:
            self.flight_ring.append(event)
        profiler = self.profiler
        if profiler is not None:
            started_ns = _wallclock.perf_counter_ns()
        for handler in self._handlers.get(event.kind, ()):
            handler(self, event)
        if profiler is not None:
            profiler.record_event(
                event.kind, _wallclock.perf_counter_ns() - started_ns
            )
        return event

    def run(self, until: float | None = None) -> float:
        """Run until the heap drains, *until* is reached, or stop().

        Returns the simulation time at which the loop ended.
        """
        if self._running:
            raise SimulationError("run() re-entered; the simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        if self.wall_clock_limit_s is not None:
            self._wall_deadline = (
                _wallclock.perf_counter() + self.wall_clock_limit_s
            )
        try:
            while self.heap:
                if self._suspend_poll is not None and self._suspend_poll():
                    raise SuspendRequested(
                        f"suspend requested at t={self.now:.6f} after "
                        f"{self.events_dispatched} events",
                        sim_time=self.now,
                        events_dispatched=self.events_dispatched,
                    )
                if self._wall_deadline is not None:
                    self._check_wall_clock()
                next_time = self.heap.peek_time()
                if until is not None and next_time is not None and next_time > until:
                    self.now = until
                    break
                self.step()
                if self._autosnap is not None:
                    self._autosnap.maybe_fire(self)
                if self._stop_requested:
                    break
            else:
                if until is not None and self.now < until:
                    self.now = until
        finally:
            self._running = False
            self._wall_deadline = None
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.3f}, queued={len(self.heap)}, "
            f"dispatched={self.events_dispatched})"
        )
