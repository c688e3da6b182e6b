"""The discrete-event simulation loop.

:class:`Simulator` owns the clock and the event heap and dispatches
each event to the handler its caller maps the event's
:class:`~repro.engine.events.EventKind` to.  It is intentionally
minimal — all batch-system semantics live in
:mod:`repro.slurm.manager`, which passes its bound methods as the
handler table of each :meth:`Simulator.run` call.

Diagnostics hooks (all inert unless armed):

* an optional flight ring keeps the last ``ring_size`` dispatched
  :class:`~repro.engine.events.Event` objects (one bounded-deque
  append each), so crashes carry the recent history;
* a wall-clock watchdog bounds the real time one :meth:`run` call may
  consume before raising :class:`~repro.errors.WatchdogError`;
* a simulated-time progress guard bounds how many events may dispatch
  at a single timestamp, catching zero-delay livelocks long before the
  lifetime ``max_events`` backstop would.

Preemption hooks (see :mod:`repro.snapshot`), arguments of one
:meth:`run` call like the handler table:

* a *suspend poll* checked before every dispatch raises
  :class:`~repro.errors.SuspendRequested` at a clean event boundary,
  so SIGTERM/SIGINT can suspend a run without corrupting state;
* an *auto-snapshotter* invoked after every dispatch periodically
  serialises the complete simulation state to disk.

The simulator keeps none of them once the call returns, so it never
holds its caller: a finished run is freed by reference counting, and
a pickle of the simulator holds its own state (the heap, the clock,
the counters and its settings) and nothing of a handler's.  The
transient run-loop fields pickle reset, so a snapshot taken mid-run
restores to a clean, re-runnable simulator, and the flight ring
pickles as an empty ring of the same capacity.
"""

from __future__ import annotations

import time as _wallclock
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Mapping

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
#: One handler per event kind; kinds without one dispatch silently.
Handlers = Mapping[EventKind, Handler]

#: Default lifetime dispatch budget (livelock backstop).
DEFAULT_MAX_EVENTS = 50_000_000


class Simulator:
    """Single-threaded discrete-event simulator.

    The handler table, the suspend poll and the snapshotter are
    arguments of one :meth:`run` (or :meth:`step`) call; the simulator
    keeps none of them.

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
        self._running = False
        self._stop_requested = False
        self._wall_deadline: float | None = None
        self._stall_anchor: float = -1.0
        self._stall_count = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
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
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle without the transient run-loop state, so a snapshot
        taken *inside* :meth:`run` restores re-runnable, and with the
        flight ring empty: a crash report's history is not simulation
        state."""
        state = self.__dict__.copy()
        state["_running"] = False
        state["_stop_requested"] = False
        state["_wall_deadline"] = None
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
    def step(self, handlers: Handlers) -> Event:
        """Dispatch exactly one event to its handler in *handlers* and
        return it."""
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
        handler = handlers.get(event.kind)
        if handler is not None:
            handler(self, event)
        if profiler is not None:
            profiler.record_event(
                event.kind, _wallclock.perf_counter_ns() - started_ns
            )
        return event

    def run(
        self,
        handlers: Handlers,
        until: float | None = None,
        *,
        suspend_poll: Callable[[], bool] | None = None,
        snapshotter: "AutoSnapshotter | None" = None,
    ) -> float:
        """Dispatch events to *handlers* until the heap drains, *until*
        is reached, or stop().

        *suspend_poll* is evaluated before each dispatch; returning
        True raises :class:`~repro.errors.SuspendRequested` with the
        queue intact, so a snapshot taken at that moment resumes
        exactly where the run left off.  *snapshotter* is offered the
        simulator after each dispatch.  Neither outlives the call.

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
                if suspend_poll is not None and suspend_poll():
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
                self.step(handlers)
                if snapshotter is not None:
                    snapshotter.maybe_fire(self)
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
