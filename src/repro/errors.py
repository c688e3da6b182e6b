"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class AllocationError(ReproError):
    """An allocation request violates cluster occupancy invariants."""


class SchedulingError(ReproError):
    """A scheduling strategy produced an inconsistent decision."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class MaxEventsError(SimulationError):
    """The engine's ``max_events`` backstop fired (likely a livelock).

    Carries the simulated time, the dispatch counters and — when a
    flight ring was kept — the tail of recently dispatched
    events, so a livelock is debuggable from the exception alone.
    Only ``message`` participates in ``args`` so instances survive
    pickling across campaign worker processes.
    """

    def __init__(
        self,
        message: str,
        *,
        sim_time: float | None = None,
        events_dispatched: int | None = None,
        max_events: int | None = None,
        flight_tail: "list[dict] | None" = None,
    ) -> None:
        super().__init__(message)
        self.sim_time = sim_time
        self.events_dispatched = events_dispatched
        self.max_events = max_events
        self.flight_tail = flight_tail or []


class WatchdogError(SimulationError):
    """A watchdog tripped: the run stalled in wall-clock or simulated
    time (see :mod:`repro.diagnostics`).

    ``kind`` is ``"wall_clock"`` (the run loop exceeded its real-time
    budget) or ``"sim_progress"`` (too many events dispatched without
    the simulated clock advancing).
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "",
        sim_time: float | None = None,
        events_dispatched: int | None = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.sim_time = sim_time
        self.events_dispatched = events_dispatched


class SnapshotError(ReproError):
    """A simulator state snapshot is missing, stale, or corrupt.

    ``reason`` categorises the failure (``"format"``, ``"version"``,
    ``"checksum"``, ``"spec_hash"``, ``"unreadable"``) so callers can
    distinguish "start fresh" situations (a stale or truncated file)
    from programming errors.
    """

    def __init__(self, message: str, *, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


class SuspendRequested(BaseException):
    """Cooperative preemption: the run was asked to suspend.

    Raised by the engine's run loop at an event boundary when a
    suspend poll (armed by the campaign layer on SIGTERM/SIGINT or by
    a resource guard) reports a pending request.  Deliberately *not* a
    :class:`ReproError` — and not even an :class:`Exception` — so the
    generic retry, crash-bundle, and quarantine handlers cannot
    mistake a suspension for a failure.

    ``snapshot_path`` is filled in by the worker entry once the
    pre-suspension state snapshot has been written; attributes survive
    pickling across ``ProcessPoolExecutor`` because
    ``BaseException.__reduce__`` preserves ``__dict__``.
    """

    def __init__(
        self,
        message: str,
        *,
        sim_time: float | None = None,
        events_dispatched: int | None = None,
        snapshot_path: str | None = None,
    ) -> None:
        super().__init__(message)
        self.sim_time = sim_time
        self.events_dispatched = events_dispatched
        self.snapshot_path = snapshot_path


class WorkloadError(ReproError):
    """A workload trace or job specification is invalid."""


class TraceFormatError(WorkloadError):
    """A Standard Workload Format (SWF) file could not be parsed."""


class JobStateError(ReproError):
    """A job-lifecycle transition was attempted from an illegal state."""


class CampaignError(ReproError):
    """A campaign execution finished with failed runs."""


class ReplayError(ReproError):
    """A crash replay bundle is missing, malformed, or unreadable."""
