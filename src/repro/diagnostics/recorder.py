"""The flight recorder: a bounded ring buffer of dispatched events.

The flight recorder is an always-on black box: the engine feeds it
every dispatched event, it retains only the last N as plain JSON-ready
dicts, and its contents surface in crash reports (or wherever a caller
reads :meth:`FlightRecorder.tail`).  Recording is one deque append per
event, so it is safe to leave enabled in production runs.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import TYPE_CHECKING

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


def _own_label(label: str) -> str:
    """*label*, as a new string when it is one digit."""
    return str(int(label)) if len(label) == 1 and label.isdigit() else label


class FlightRecorder:
    """Retains the last *limit* dispatched events as plain dicts."""

    def __init__(self, limit: int = 256) -> None:
        self.limit = int(limit)
        self._ring: deque[dict[str, object]] = deque(maxlen=self.limit)
        #: Total events seen, including those that fell off the ring.
        self.recorded = 0

    def record(self, event: "Event") -> None:
        """Append one dispatched event (cheap: a bounded deque push)."""
        self.recorded += 1
        self._ring.append(
            {
                "time": event.time,
                "kind": event.kind.name,
                "seq": event.seq,
                "label": _payload_label(event.payload),
            }
        )

    def __setstate__(self, state: dict) -> None:
        # setattr interns the names as pickle's default restore does.
        for name, value in state.items():
            setattr(self, name, value)
        # Each record is rebuilt as record() built it, so that a
        # restored recorder pickles to the same bytes: under record()'s
        # interned keys, with the event kind's interned name, and with
        # a one-digit job-id label as a string of its own, as
        # str(job_id) made it (unpickling shares one-character
        # strings).
        self._ring = deque(
            (
                {
                    "time": entry["time"],
                    "kind": sys.intern(entry["kind"]),
                    "seq": entry["seq"],
                    "label": _own_label(entry["label"]),
                }
                for entry in self._ring
            ),
            maxlen=self._ring.maxlen,
        )

    @property
    def dropped(self) -> int:
        """Events that have fallen off the ring."""
        return self.recorded - len(self._ring)

    def tail(self, last: int | None = None) -> list[dict[str, object]]:
        """The most recent records, oldest first."""
        records = list(self._ring)
        return records if last is None else records[-last:]

    def last(self) -> dict[str, object] | None:
        """The most recently dispatched event, or None before any."""
        return self._ring[-1] if self._ring else None

    def __len__(self) -> int:
        return len(self._ring)


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
