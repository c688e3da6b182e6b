"""Crash reports: what the engine last dispatched when an error escaped.

When any :class:`~repro.errors.ReproError` escapes the event loop, the
workload manager calls :func:`attach_crash_info` to pin a
:class:`CrashInfo` onto the exception instance before re-raising.  The
attachment survives process boundaries (``BaseException.__reduce__``
preserves ``__dict__``), so campaign workers can serialise replay
bundles from it and the parent still sees the structured report.

The engine's flight ring holds the dispatched
:class:`~repro.engine.events.Event` objects themselves; they become
plain JSON-ready records here, only when a report is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.events import Event


def _payload_label(payload: object) -> str:
    """Short identifier for an event payload."""
    if payload is None:
        return ""
    for attr in ("job_id", "name", "id"):
        value = getattr(payload, attr, None)
        if value is not None:
            return str(value)
    if isinstance(payload, str):
        return payload
    return type(payload).__name__


def _event_record(event: "Event") -> dict[str, object]:
    return {
        "time": event.time,
        "kind": event.kind.name,
        "seq": event.seq,
        "label": _payload_label(event.payload),
    }


def flight_records(sim: object, last: int | None = None) -> list[dict[str, object]]:
    """The last *last* (default: all) events in *sim*'s flight ring as
    records, oldest first; empty when the ring is off."""
    ring = getattr(sim, "flight_ring", None)
    if not ring:
        return []
    events = list(ring) if last is None else list(ring)[-last:]
    return [_event_record(event) for event in events]


def snapshot_manager(manager: object) -> dict[str, object]:
    """Cluster/queue/job state snapshot for a crash report.

    Duck-typed over :class:`~repro.slurm.manager.WorkloadManager` so
    the diagnostics layer has no import dependency on the slurm layer;
    every attribute access is guarded, because a crash may happen while
    the manager is partially constructed.
    """
    snapshot: dict[str, object] = {}
    sim = getattr(manager, "sim", None)
    if sim is not None:
        snapshot["sim_time"] = sim.now
        snapshot["events_dispatched"] = sim.events_dispatched
        snapshot["events_queued"] = len(sim.heap)
    jobs = getattr(manager, "jobs", None)
    if jobs is not None:
        states: dict[str, int] = {}
        for job in jobs.values():
            name = getattr(getattr(job, "state", None), "name", "?")
            states[name] = states.get(name, 0) + 1
        snapshot["jobs_total"] = len(jobs)
        snapshot["job_states"] = dict(sorted(states.items()))
    queue = getattr(manager, "queue", None)
    if queue is not None:
        pending = [getattr(job, "job_id", -1) for job in queue]
        snapshot["queue_depth"] = len(pending)
        snapshot["queue_head"] = pending[:16]
    cluster = getattr(manager, "cluster", None)
    if cluster is not None:
        down: list[int] = []
        running: dict[str, list[int]] = {}
        for node in cluster.nodes:
            if node.down:
                down.append(node.node_id)
            for occupant in node.occupant_ids:
                running.setdefault(str(occupant), []).append(node.node_id)
        snapshot["cluster_nodes"] = cluster.num_nodes
        snapshot["nodes_down"] = down
        snapshot["running_jobs"] = dict(sorted(running.items()))
    for counter in ("scheduler_passes", "placements_applied",
                    "failures_injected", "jobs_requeued"):
        value = getattr(manager, counter, None)
        if value is not None:
            snapshot[counter] = value
    return snapshot


@dataclass(frozen=True)
class CrashInfo:
    """Structured post-mortem of one simulation error."""

    error_type: str
    error_message: str
    sim_time: float | None = None
    events_dispatched: int | None = None
    #: The event being dispatched when the error surfaced.
    last_event: dict[str, object] | None = None
    #: The flight ring's records, oldest first.
    flight_events: list[dict[str, object]] = field(default_factory=list)
    #: Events that had already fallen off the ring.
    flight_dropped: int = 0
    #: Cluster/queue/job state at the moment of the crash.
    snapshot: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "CrashInfo":
        known = set(CrashInfo.__dataclass_fields__)
        return CrashInfo(**{k: v for k, v in data.items() if k in known})  # type: ignore[arg-type]

    #: Fields a deterministic replay must reproduce exactly.
    REPLAY_KEYS = ("error_type", "error_message", "sim_time",
                   "events_dispatched", "last_event")

    def replay_signature(self) -> dict[str, object]:
        """The deterministically reproducible subset of this report."""
        data = self.as_dict()
        return {key: data[key] for key in self.REPLAY_KEYS}


def crash_info_from(exc: BaseException, manager: object = None) -> CrashInfo:
    """Build a :class:`CrashInfo` for *exc* in the context of *manager*."""
    sim = getattr(manager, "sim", None)
    ring = getattr(sim, "flight_ring", None)
    records = flight_records(sim)
    return CrashInfo(
        error_type=type(exc).__name__,
        error_message=str(exc),
        sim_time=sim.now if sim is not None else None,
        events_dispatched=(
            sim.events_dispatched if sim is not None else None
        ),
        last_event=records[-1] if records else None,
        flight_events=records,
        flight_dropped=(
            sim.events_dispatched - len(ring) if ring is not None else 0
        ),
        snapshot=snapshot_manager(manager) if manager is not None else {},
    )


def attach_crash_info(exc: BaseException, manager: object = None) -> CrashInfo:
    """Attach a crash report to *exc* (idempotent: innermost wins).

    Returns the attached report.  Errors raised deep inside nested
    simulations keep the report closest to the failure.
    """
    existing = getattr(exc, "crash_info", None)
    if isinstance(existing, CrashInfo):
        return existing
    info = crash_info_from(exc, manager)
    exc.crash_info = info  # type: ignore[attr-defined]
    return info
