"""Chrome/Perfetto trace export: the one Trace Event Format builder.

Every `Trace Event Format`_ document the repository writes is built
and written here:
the event constructors (:func:`metadata_event`, :func:`name_event`,
:func:`complete_event`, :func:`instant_event`), the microsecond
conversion (:func:`usec`), the document envelope
(:func:`trace_document`) and the writer (:func:`write_trace`).  Two
producers use them:

* :func:`perfetto_trace` folds a finished
  :class:`~repro.slurm.manager.SimulationResult` into the in-simulator
  lanes:

  - **pid 1 "cluster"** — one thread per (node, SMT lane); every job
    becomes a complete ("X") event on each node it occupied, so the
    Perfetto UI shows the machine as stacked per-node swimlanes with
    co-allocated jobs side by side on a node's two lanes.
  - **pid 2 "scheduler"** — instant ("i") events from the decision
    trace (scheduler passes, accepts, coded rejects, lifecycle edges),
    when one is supplied.

* :func:`~repro.observability.stitch.stitch_store` folds a store's
  fleet events into the service, lease and worker lanes (pids 3-5).

The simulator export is a pure function of the accounting log and the
decision records — both deterministic — so traces are byte-identical
across serial/parallel campaigns, and pids/tids are stable across
suspend/resume (asserted by the test suite).  Timestamps are
seconds scaled to microseconds, the unit the format expects.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.trace import DecisionTrace
    from repro.slurm.manager import SimulationResult

#: Trace process ids (fixed, so every exported trace reads the same).
CLUSTER_PID = 1
SCHEDULER_PID = 2

#: Threads per node reserved in the tid encoding.  SMT exposes two
#: lanes; the headroom covers any future deeper sharing without
#: changing existing tids.
_LANE_SLOTS = 4

#: Scheduler-track tids by decision record type.
_SCHEDULER_TIDS = {"span": 1, "accept": 2, "reject": 3, "lifecycle": 4, "event": 5}


def usec(t: float) -> int:
    """Seconds to the integer microseconds the format expects."""
    return int(round(t * 1e6))


def metadata_event(
    name: str, pid: int, args: dict, tid: int | None = None
) -> dict:
    """A metadata ("M") event; without *tid* it names the process."""
    event = {"name": name, "ph": "M", "pid": pid, "args": args}
    if tid is not None:
        event["tid"] = tid
    return event


def name_event(pid: int, name: str, tid: int | None = None) -> dict:
    """``process_name`` metadata, or ``thread_name`` when *tid* is set."""
    if tid is None:
        return metadata_event("process_name", pid, {"name": name})
    return metadata_event("thread_name", pid, {"name": name}, tid)


def complete_event(
    name: str, cat: str, ts: int, dur: int, pid: int, tid: int, args: dict
) -> dict:
    """A complete ("X") span; *ts* and *dur* are microseconds."""
    return {
        "name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
        "pid": pid, "tid": tid, "args": args,
    }


def instant_event(
    name: str, ts: int, pid: int, tid: int, args: dict,
    cat: str | None = None,
) -> dict:
    """A thread-scoped instant ("i") event at *ts* microseconds."""
    event = {
        "name": name, "ph": "i", "s": "t", "ts": ts,
        "pid": pid, "tid": tid, "args": args,
    }
    if cat is not None:
        event["cat"] = cat
    return event


def trace_document(events: list[dict], other_data: dict) -> dict:
    """The Trace Event Format envelope around *events*."""
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other_data,
    }


def write_trace(path: str | Path, document: Mapping[str, object]) -> Path:
    """Write *document* as sorted-key JSON plus a trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(document, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def _job_events(result: "SimulationResult") -> tuple[list[dict], set[tuple[int, int]]]:
    """Complete events for every job on every node it ran on.

    Lane assignment is greedy and deterministic: records sorted by
    (start, job id); per node, a job takes the lowest lane that is
    free at its start time.  Because allocations are exclusive or
    two-way shared, two lanes always suffice; extra slots are headroom.
    """
    events: list[dict] = []
    used: set[tuple[int, int]] = set()  # (node_id, lane)
    lane_ends: dict[int, list[float]] = {}
    records = sorted(
        (r for r in result.accounting if r.node_ids),
        key=lambda r: (r.start_time, r.job_id),
    )
    for record in records:
        for node_id in record.node_ids:
            lanes = lane_ends.setdefault(node_id, [])
            lane = None
            for index, busy_until in enumerate(lanes):
                if busy_until <= record.start_time:
                    lane = index
                    break
            if lane is None:
                lane = len(lanes)
                lanes.append(record.end_time)
            else:
                lanes[lane] = record.end_time
            lane = min(lane, _LANE_SLOTS - 1)
            tid = node_id * _LANE_SLOTS + lane + 1
            used.add((node_id, lane))
            events.append(complete_event(
                f"job {record.job_id} ({record.app or 'unknown'})", "job",
                usec(record.start_time),
                max(usec(record.end_time) - usec(record.start_time), 0),
                CLUSTER_PID, tid,
                {
                    "job": record.job_id,
                    "app": record.app,
                    "state": record.state.value,
                    "shared": record.was_shared,
                    "num_nodes": record.num_nodes,
                    "requeues": record.requeues,
                },
            ))
    return events, used


def _scheduler_events(records: Iterable[Mapping[str, object]]) -> list[dict]:
    """Instant events for the scheduler decision track."""
    events: list[dict] = []
    for record in records:
        record_type = str(record.get("type", "event"))
        tid = _SCHEDULER_TIDS.get(record_type, 5)
        if record_type == "reject":
            name = f"reject {record.get('stage')}: {record.get('code')}"
        elif record_type == "accept":
            name = f"accept {record.get('kind')} job {record.get('job')}"
        elif record_type == "span":
            name = str(record.get("name", "pass"))
        elif record_type == "lifecycle":
            name = f"job {record.get('job')} {record.get('state')}"
        else:
            name = str(record.get("name", record_type))
        args = {
            k: v for k, v in record.items() if k not in ("t", "type")
        }
        events.append(instant_event(
            name, usec(float(record.get("t", 0.0))),  # type: ignore[arg-type]
            SCHEDULER_PID, tid, args, cat=record_type,
        ))
    return events


def _metadata(used_lanes: set[tuple[int, int]], with_scheduler: bool) -> list[dict]:
    events = [name_event(CLUSTER_PID, "cluster")]
    for node_id, lane in sorted(used_lanes):
        tid = node_id * _LANE_SLOTS + lane + 1
        events.append(
            name_event(CLUSTER_PID, f"node {node_id} lane {lane}", tid)
        )
        events.append(metadata_event(
            "thread_sort_index", CLUSTER_PID, {"sort_index": tid}, tid
        ))
    if with_scheduler:
        events.append(name_event(SCHEDULER_PID, "scheduler"))
        for track, tid in sorted(_SCHEDULER_TIDS.items(), key=lambda kv: kv[1]):
            events.append(name_event(SCHEDULER_PID, track, tid))
    return events


def perfetto_trace(
    result: "SimulationResult",
    decisions: "DecisionTrace | Iterable[Mapping[str, object]] | None" = None,
) -> dict:
    """Build the complete Trace Event Format document."""
    job_events, used_lanes = _job_events(result)
    decision_records: Iterable[Mapping[str, object]] = ()
    if decisions is not None:
        decision_records = getattr(decisions, "records", decisions)
    scheduler_events = _scheduler_events(decision_records)
    events = _metadata(used_lanes, with_scheduler=bool(scheduler_events))
    events.extend(job_events)
    events.extend(scheduler_events)
    return trace_document(events, {
        "strategy": result.strategy,
        "cluster_nodes": result.cluster_nodes,
        "jobs": len(result.accounting),
        "makespan_s": result.makespan,
    })


def validate_trace(document: Mapping[str, object]) -> list[str]:
    """Structural validation of an exported trace document.

    Returns a list of problems (empty = valid): required keys present,
    every event carries a known phase with sane timestamps, and the
    complete events on each (pid, tid) track are non-overlapping —
    the "well-nested" property our flat per-lane tracks must have.
    Used by the export tests and the CI smoke job.
    """
    problems: list[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    tracks: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for index, event in enumerate(events):
        if not isinstance(event, Mapping):
            problems.append(f"event {index} is not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "i", "M", "B", "E", "C"):
            problems.append(f"event {index} has unknown phase {phase!r}")
            continue
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            problems.append(f"event {index} has bad ts {ts!r}")
            continue
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, int) or duration < 0:
                problems.append(f"event {index} has bad dur {duration!r}")
                continue
            key = (int(event.get("pid", 0)), int(event.get("tid", 0)))  # type: ignore[arg-type]
            tracks.setdefault(key, []).append((ts, ts + duration))
    for key, spans in tracks.items():
        spans.sort()
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            if next_start < prev_end:
                problems.append(
                    f"overlapping complete events on pid/tid {key}"
                )
                break
    return problems
