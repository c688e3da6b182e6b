"""Distributed-trace stitcher: one Perfetto document per campaign.

The fleet event sidecars (:mod:`repro.observability.events`) record
every lifecycle boundary a run crosses — submission, enqueue, lease
claim/renew/reclaim, commit, fence-discard — each tagged with the
submission's content-derived ``trace_id``.  This module folds them
into a single Chrome-trace document with three process lanes, stacked
below the in-simulator lanes PR 5 established (cluster pid 1,
scheduler pid 2):

* pid 3 — **service**: one span per HTTP submission (replays join the
  original span's lane as instants, they do not re-execute).
* pid 4 — **leases**: one thread per run; a span per lease *tenure*
  (claim token k → the terminal event carrying token k).  A tenure
  ended by a stale-lease reclaim stays on the timeline, marked
  ``superseded: true`` with the fencing token that displaced it —
  zombies are evidence, not noise.
* pid 5 — **workers**: one thread per worker process; a span per run
  execution attempt, so fleet utilisation is readable at a glance.

Events, the microsecond conversion and the document envelope come
from :mod:`repro.observability.perfetto`, so the output passes the same
:func:`~repro.observability.perfetto.validate_trace` contract as the
simulator export: integer microseconds, non-overlapping X spans per
lane.
"""

from __future__ import annotations

from pathlib import Path

from repro.observability.events import TRACE_KEY, read_fleet_events
from repro.observability.perfetto import (
    complete_event,
    instant_event,
    name_event,
    trace_document,
    usec,
)

#: Process lanes (pids 1 and 2 belong to the in-simulator exporter).
SERVICE_PID = 3
LEASE_PID = 4
WORKER_PID = 5

#: Floor for zero-duration tenures so spans stay visible (1 µs).
_MIN_DUR_US = 1

#: Events that end a lease tenure, with the span name suffix they earn.
_TENURE_ENDERS = {
    "complete": "ok",
    "requeue": "requeued",
    "failed": "failed",
    "quarantined": "quarantined",
    "fenced": "fenced",
}


def _clip_lane_overlaps(spans: list[dict]) -> None:
    """Clip X spans in one (pid, tid) lane so none overlap.

    Fleet clocks are per-process ``time.time()`` readings; sub-ms skew
    between a worker's commit stamp and the parent's reclaim stamp can
    produce microsecond overlaps that would fail the validator.  The
    earlier span wins; the later one is shifted to start at its end.
    """
    spans.sort(key=lambda e: (e["ts"], -e["dur"]))
    horizon = 0
    for span in spans:
        if span["ts"] < horizon:
            shift = horizon - span["ts"]
            span["ts"] += shift
            span["dur"] = max(_MIN_DUR_US, span["dur"] - shift)
        horizon = span["ts"] + span["dur"]


def stitch_store(store_root: str | Path) -> dict:
    """Stitch one store's fleet events into a Perfetto document.

    Raises nothing on sparse input: a store with no sidecars yields a
    document with only metadata events (callers decide whether that is
    an error — ``repro trace --stitched`` treats it as one).
    """
    store_root = Path(store_root)
    events = read_fleet_events(store_root)
    base = min((float(e["t"]) for e in events), default=0.0)

    def ts(t: float) -> int:
        return usec(t - base)

    def dur(start: float, end: float) -> int:
        return max(_MIN_DUR_US, ts(end) - ts(start))

    trace_events: list[dict] = [
        name_event(SERVICE_PID, "service: submissions"),
        name_event(LEASE_PID, "queue: lease tenures"),
        name_event(WORKER_PID, "fleet: workers"),
    ]
    instants: list[dict] = []
    lanes: dict[tuple[int, int], list[dict]] = {}

    def add_span(span: dict) -> None:
        lanes.setdefault((span["pid"], span["tid"]), []).append(span)

    # --- service lane: one span per submission -----------------------
    submit_lanes: dict[str, int] = {}
    end_by_trace: dict[str, float] = {}
    for event in events:
        trace = event.get(TRACE_KEY)
        if isinstance(trace, str) and event.get("kind") in (
            "complete", "failed", "quarantined",
        ):
            end_by_trace[trace] = max(
                end_by_trace.get(trace, 0.0), float(event["t"])
            )
    for event in events:
        if event.get("kind") != "submit":
            continue
        trace = str(event.get(TRACE_KEY, ""))
        if trace in submit_lanes:
            # Idempotent replay: joins the original span as an instant.
            instants.append(instant_event(
                "submit replayed", ts(float(event["t"])),
                SERVICE_PID, submit_lanes[trace], {"trace": trace},
            ))
            continue
        submit_tid = submit_lanes[trace] = len(submit_lanes) + 1
        trace_events.append(
            name_event(SERVICE_PID, f"submission {trace[:12]}", submit_tid)
        )
        start = float(event["t"])
        end = max(end_by_trace.get(trace, start), start)
        add_span(complete_event(
            f"campaign {trace[:12]}", "service", ts(start), dur(start, end),
            SERVICE_PID, submit_tid,
            {
                "trace": trace,
                "runs": int(event.get("runs", 0)),
                "source": str(event.get("source", "")),
            },
        ))

    # --- lease lanes: one thread per run, one span per tenure --------
    run_tids: dict[str, int] = {}

    def lease_tid(run_id: str) -> int:
        if run_id not in run_tids:
            run_tids[run_id] = len(run_tids) + 1
            trace_events.append(
                name_event(LEASE_PID, f"run {run_id[:16]}", run_tids[run_id])
            )
        return run_tids[run_id]

    def tenure_span(
        run_id: str, tenure: dict, end: float, outcome: str, **args: object
    ) -> None:
        add_span(complete_event(
            f"lease #{tenure['token']} ({outcome})", "lease",
            ts(tenure["start"]), dur(tenure["start"], end),
            LEASE_PID, lease_tid(run_id),
            {
                "run": run_id,
                "token": tenure["token"],
                "holder_pid": tenure["pid"],
                "renews": tenure["renews"],
                "outcome": outcome,
                "trace": tenure["trace"],
                "superseded": False,
                **args,
            },
        ))

    open_tenures: dict[str, dict] = {}
    for event in events:
        kind = str(event.get("kind"))
        run_id = event.get("run_id")
        if not isinstance(run_id, str):
            continue
        t = float(event["t"])
        trace = event.get(TRACE_KEY)
        if kind == "enqueue":
            instants.append(instant_event(
                "enqueue", ts(t), LEASE_PID, lease_tid(run_id),
                {"run": run_id, "trace": trace},
            ))
        elif kind == "claim":
            open_tenures[run_id] = {
                "start": t,
                "token": int(event.get("token", 0)),
                "pid": int(event.get("pid", 0)),
                "trace": trace,
                "renews": 0,
            }
        elif kind == "renew":
            tenure = open_tenures.get(run_id)
            if tenure is not None:
                tenure["renews"] += 1
        elif kind in _TENURE_ENDERS:
            tenure = open_tenures.pop(run_id, None)
            if tenure is not None:
                tenure_span(run_id, tenure, t, _TENURE_ENDERS[kind])
        elif kind == "reclaim":
            # The zombie tenure: claim with token k, displaced by a
            # fencing bump to new_token.  Marked superseded, kept.
            tenure = open_tenures.pop(run_id, None)
            new_token = int(event.get("new_token", 0))
            if tenure is not None:
                tenure_span(
                    run_id, tenure, t, "superseded",
                    holder_pid=int(event.get("holder_pid", tenure["pid"])),
                    trace=tenure["trace"] or trace,
                    superseded=True,
                    fenced_by=new_token,
                )
            instants.append(instant_event(
                f"reclaim -> #{new_token}", ts(t),
                LEASE_PID, lease_tid(run_id),
                {"run": run_id, "fenced_by": new_token, "trace": trace},
            ))

    # A tenure still open at the end of the log (a live in-flight run,
    # or a kill so hard no later event exists) closes at the log tail.
    tail = max((float(e["t"]) for e in events), default=0.0)
    for run_id, tenure in open_tenures.items():
        tenure_span(run_id, tenure, tail, "open")

    # --- worker lanes: one thread per pid, a span per attempt --------
    worker_tids: dict[int, int] = {}

    def worker_tid(pid: int) -> int:
        if pid not in worker_tids:
            worker_tids[pid] = len(worker_tids) + 1
            trace_events.append(
                name_event(WORKER_PID, f"worker pid {pid}", worker_tids[pid])
            )
        return worker_tids[pid]

    open_attempts: dict[str, dict] = {}
    for event in events:
        kind = str(event.get("kind"))
        run_id = event.get("run_id")
        if not isinstance(run_id, str):
            continue
        t = float(event["t"])
        if kind == "claim":
            open_attempts[run_id] = {
                "start": t,
                "pid": int(event.get("pid", 0)),
                "token": int(event.get("token", 0)),
                "trace": event.get(TRACE_KEY),
            }
        elif kind in _TENURE_ENDERS or kind == "reclaim":
            attempt = open_attempts.pop(run_id, None)
            if attempt is None:
                continue
            outcome = (
                "killed" if kind == "reclaim" else _TENURE_ENDERS[kind]
            )
            add_span(complete_event(
                f"{run_id[:16]} ({outcome})", "worker",
                ts(attempt["start"]), dur(attempt["start"], t),
                WORKER_PID, worker_tid(attempt["pid"]),
                {
                    "run": run_id,
                    "token": attempt["token"],
                    "outcome": outcome,
                    "trace": attempt["trace"],
                },
            ))

    for lane in lanes.values():
        _clip_lane_overlaps(lane)
        trace_events.extend(lane)
    trace_events.extend(instants)
    traces = sorted(
        {
            e[TRACE_KEY]
            for e in events
            if isinstance(e.get(TRACE_KEY), str) and e[TRACE_KEY]
        }
    )
    return trace_document(trace_events, {
        "exporter": "repro.observability.stitch",
        "store": str(store_root),
        "traces": traces,
        "events": len(events),
    })
