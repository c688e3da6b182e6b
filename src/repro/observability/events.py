"""Fleet event sidecars: the durable substrate of the observability
plane (DESIGN.md §12).

The distributed campaign plane — submission front-end, durable queue,
worker fleet — has no shared memory, so every live signal it exports
is reconstructed from **per-process event sidecars**: append-only,
fsync'd JSONL files under ``<store>/.queue/metrics/``, one per
``<host>-<pid>``.  The queue layer appends one small record at each
lifecycle boundary (enqueue, claim, renew, complete, requeue, reclaim,
fence-discard, terminal failure/quarantine); readers — ``repro queue
metrics``, ``repro top``, the server's ``GET /metrics``, the
distributed-trace stitcher — merge the files after the fact.

Crash contract: appends go through the ``queue.metrics.write``
failpoint, so the chaos harness can hard-kill a worker mid-append; a
torn tail is *tolerated* by every reader (the unparseable final line
is skipped), surfaced by ``repro fsck`` as a warning, and truncated by
``fsck --repair``.  Sidecars live under the dot-hidden ``.queue/``
directory, outside the store-fingerprint surface, so armed
observability keeps result stores byte-identical to disarmed runs —
the PR 5 purity contract, extended fleet-wide.

Trace context: every submission mints a content-derived ``trace_id``
(the same hash as its submission id, so idempotent replays join the
same trace).  It rides queue items' ``extra[TRACE_KEY]`` into workers;
:func:`set_current_trace` / :func:`current_trace` carry it across the
entry-point call boundary so telemetry sidecars and decision traces
can tag themselves without widening any signature.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.faultinject import with_io_retries
from repro.observability.histogram import Histogram
from repro.storage.durable import append_durable

#: Directory under ``<store>/.queue/`` holding the event sidecars.
METRICS_DIR_NAME = "metrics"

#: Sidecar filename suffix.  Chosen to stay clear of the fsck residue
#: globs (``*.tmp``, ``.*.tmp``, ``*.fired``) — sidecars are durable
#: state, not leftovers.
EVENTS_SUFFIX = ".events.jsonl"

#: Key under ``QueueItem.extra`` carrying the trace id into workers.
TRACE_KEY = "trace"

#: Prometheus text exposition format (hand-rendered; stdlib only).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Bucket upper bounds for the fleet SLO histograms.  Queue waits and
#: per-run executions on a healthy fleet are sub-second to minutes;
#: the trailing buckets catch stalled drains.
SLO_SECONDS_EDGES: tuple[float, ...] = (
    0.05, 0.25, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0,
)

#: The metric-name authority table (mirrors ``REASON_CODES`` in
#: :mod:`repro.observability.trace`): every series ``repro queue
#: metrics`` / ``GET /metrics`` may emit, name -> (type, help).  The
#: renderer refuses to invent names outside this table, and DESIGN.md
#: §12 documents exactly these.
METRIC_NAMES: dict[str, tuple[str, str]] = {
    "repro_queue_pending": ("gauge", "Queue items not yet retired"),
    "repro_queue_claimable": (
        "gauge", "Pending items with no live lease"),
    "repro_queue_leased": ("gauge", "Items under a live lease"),
    "repro_queue_completed": ("gauge", "Results committed to the store"),
    "repro_queue_failed": ("gauge", "Terminal failed/ items"),
    "repro_queue_quarantined": ("gauge", "Terminal quarantined/ items"),
    "repro_lease_stale": (
        "gauge", "Live leases past their heartbeat TTL"),
    "repro_lease_heartbeat_age_max_seconds": (
        "gauge", "Oldest live-lease heartbeat age"),
    "repro_runs_enqueued_total": ("counter", "Queue items created"),
    "repro_runs_claimed_total": ("counter", "Successful lease claims"),
    "repro_runs_completed_total": (
        "counter", "Results committed through the queue"),
    "repro_runs_requeued_total": (
        "counter", "Voluntary hand-backs (shed, sigterm, interrupt)"),
    "repro_runs_reclaimed_total": (
        "counter", "Stale-lease reclaims (zombie supersessions)"),
    "repro_runs_fenced_total": (
        "counter", "In-flight results discarded by a superseded token"),
    "repro_runs_failed_total": ("counter", "Terminal failures"),
    "repro_runs_quarantined_total": ("counter", "Terminal quarantines"),
    "repro_slo_queue_wait_seconds": (
        "histogram", "Submit/enqueue to first claim"),
    "repro_slo_execution_seconds": (
        "histogram", "Claim to committed result"),
    "repro_slo_end_to_end_seconds": (
        "histogram", "Enqueue to committed result"),
    # Server-side admission series (``GET /metrics`` only; offline
    # ``repro queue metrics`` has no server in front of it).
    "repro_http_requests_total": ("counter", "Requests past the health "
                                  "bypass (admission-gated)"),
    "repro_http_accepted_total": ("counter", "Requests granted a slot"),
    "repro_http_shed_total": ("counter", "Requests shed 429/503"),
    "repro_http_backlog_timeouts_total": (
        "counter", "Backlog waiters shed at the deadline"),
    "repro_http_rejected_draining_total": (
        "counter", "Requests refused while draining"),
    "repro_http_deadline_timeouts_total": (
        "counter", "Handlers cancelled at the deadline"),
    "repro_http_streams_opened_total": ("counter", "SSE streams opened"),
    "repro_http_streams_completed_total": (
        "counter", "SSE streams that saw completion"),
    "repro_http_streams_reaped_total": (
        "counter", "Half-open SSE streams reaped"),
    "repro_http_streams_shed_total": (
        "counter", "SSE streams refused at the cap"),
    "repro_http_submissions_created_total": (
        "counter", "New submissions accepted"),
    "repro_http_submissions_replayed_total": (
        "counter", "Idempotent submission replays"),
    "repro_http_inflight": ("gauge", "Handlers currently admitted"),
    "repro_http_waiting": ("gauge", "Requests parked in the backlog"),
    "repro_http_streams_active": ("gauge", "SSE streams currently open"),
    "repro_http_draining": ("gauge", "1 while a drain is in progress"),
}

#: ``self.metrics`` counter name (server) -> Prometheus series name.
_ADMISSION_SERIES: dict[str, str] = {
    "requests": "repro_http_requests_total",
    "accepted": "repro_http_accepted_total",
    "shed": "repro_http_shed_total",
    "backlog_timeouts": "repro_http_backlog_timeouts_total",
    "rejected_draining": "repro_http_rejected_draining_total",
    "deadline_timeouts": "repro_http_deadline_timeouts_total",
    "streams_opened": "repro_http_streams_opened_total",
    "streams_completed": "repro_http_streams_completed_total",
    "streams_reaped": "repro_http_streams_reaped_total",
    "streams_shed": "repro_http_streams_shed_total",
    "submissions_created": "repro_http_submissions_created_total",
    "submissions_replayed": "repro_http_submissions_replayed_total",
    "inflight": "repro_http_inflight",
    "waiting": "repro_http_waiting",
    "streams_active": "repro_http_streams_active",
    "draining": "repro_http_draining",
}

#: Event kind -> fleet counter it increments.
_KIND_COUNTERS: dict[str, str] = {
    "enqueue": "enqueued",
    "claim": "claimed",
    "complete": "completed",
    "requeue": "requeued",
    "reclaim": "reclaimed",
    "fenced": "fenced",
    "failed": "failed",
    "quarantined": "quarantined",
}


# ----------------------------------------------------------------------
# Trace context
# ----------------------------------------------------------------------
_current_trace: str | None = None


def set_current_trace(trace_id: str | None) -> str | None:
    """Install the ambient trace id for this process; returns the
    previous value so callers can restore it (``try/finally``)."""
    global _current_trace
    previous = _current_trace
    _current_trace = trace_id
    return previous


def current_trace() -> str | None:
    """The ambient trace id, or None outside any traced execution."""
    return _current_trace


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
def _safe_host(host: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", host) or "host"


class EventLog:
    """Append-only fsync'd event sidecar for one process.

    One file per ``<host>-<pid>`` under the queue's ``metrics/``
    directory — no shared memory, no cross-process locking; merging is
    the reader's job.  Each :meth:`emit` writes one complete JSON line
    in a single ``write`` on an ``O_APPEND`` handle (so concurrent
    emitters within a process cannot interleave partial lines) and
    fsyncs it, guarded by the ``queue.metrics.write`` failpoint — the
    chaos harness kills here and the torn tail must be tolerated.
    """

    FAILPOINT = "queue.metrics.write"

    def __init__(
        self,
        metrics_dir: str | Path,
        *,
        pid: int | None = None,
        host: str | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.dir = Path(metrics_dir)
        self.pid = os.getpid() if pid is None else int(pid)
        if host is None:
            from repro.campaign.lease import local_host

            host = local_host()
        self.host = host
        self.path = self.dir / (
            f"{_safe_host(self.host)}-{self.pid}{EVENTS_SUFFIX}"
        )
        self._clock = clock
        self._handle = None
        self._lock = threading.Lock()

    def emit(self, kind: str, run_id: str | None = None, **fields) -> None:
        """Durably append one event; None-valued fields are dropped."""
        record: dict[str, object] = {
            "t": round(float(self._clock()), 6),
            "kind": str(kind),
            "pid": self.pid,
            "host": self.host,
        }
        if run_id is not None:
            record["run_id"] = run_id
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")

        def _attempt() -> None:
            with self._lock:
                if self._handle is None:
                    self.dir.mkdir(parents=True, exist_ok=True)
                    self._handle = open(self.path, "ab")
                try:
                    append_durable(self._handle, data, self.FAILPOINT)
                except OSError:
                    # Drop the handle so the retry reopens cleanly.
                    try:
                        self._handle.close()
                    except OSError:
                        pass
                    self._handle = None
                    raise

        with_io_retries(_attempt)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
def metrics_dir_for(store_root: str | Path) -> Path:
    from repro.campaign.queue import QUEUE_DIR_NAME

    return Path(store_root) / QUEUE_DIR_NAME / METRICS_DIR_NAME


def read_event_log(path: str | Path) -> list[dict]:
    """Parse one sidecar, skipping torn or garbled lines.

    A crash mid-append (power cut, ``queue.metrics.write`` kill) leaves
    at most one unparseable line; observability must degrade, never
    fail, so *any* undecodable line is dropped silently — ``repro
    fsck`` is the tool that reports them.
    """
    events: list[dict] = []
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return events
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(record, dict) and "kind" in record and "t" in record:
            events.append(record)
    return events


def read_fleet_events(store_root: str | Path) -> list[dict]:
    """All fleet events under a store, merged and time-ordered."""
    metrics_dir = metrics_dir_for(store_root)
    events: list[dict] = []
    if metrics_dir.is_dir():
        for path in sorted(metrics_dir.glob(f"*{EVENTS_SUFFIX}")):
            events.extend(read_event_log(path))
    events.sort(key=lambda e: (float(e.get("t", 0.0)), str(e.get("kind"))))
    return events


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _slo_samples(
    events: Iterable[dict],
) -> tuple[list[float], list[float], list[float]]:
    """(queue waits, executions, end-to-ends) in seconds, one sample
    per completed run: first enqueue -> first claim -> complete."""
    enqueued: dict[str, float] = {}
    claimed: dict[str, float] = {}
    waits: list[float] = []
    execs: list[float] = []
    totals: list[float] = []
    for event in events:
        run_id = event.get("run_id")
        if not isinstance(run_id, str):
            continue
        kind = event.get("kind")
        t = float(event.get("t", 0.0))
        if kind == "enqueue":
            enqueued.setdefault(run_id, t)
        elif kind == "claim":
            if run_id not in claimed:
                claimed[run_id] = t
                if run_id in enqueued:
                    waits.append(max(0.0, t - enqueued[run_id]))
        elif kind == "complete":
            if run_id in claimed:
                execs.append(max(0.0, t - claimed.pop(run_id)))
            if run_id in enqueued:
                totals.append(max(0.0, t - enqueued.pop(run_id)))
    return waits, execs, totals


def _worker_rows(events: Iterable[dict], now: float) -> list[dict]:
    """Per-worker throughput rows from claim/commit events."""
    workers: dict[tuple[int, str], dict] = {}
    for event in events:
        kind = event.get("kind")
        if kind not in ("claim", "complete", "requeue", "fenced", "renew"):
            continue
        pid = int(event.get("pid", 0))
        host = str(event.get("host", ""))
        row = workers.setdefault((pid, host), {
            "pid": pid,
            "host": host,
            "claims": 0,
            "completed": 0,
            "requeued": 0,
            "fenced": 0,
            "first_t": float(event["t"]),
            "last_t": float(event["t"]),
        })
        row["last_t"] = max(row["last_t"], float(event["t"]))
        row["first_t"] = min(row["first_t"], float(event["t"]))
        if kind == "claim":
            row["claims"] += 1
        elif kind == "complete":
            row["completed"] += 1
        elif kind == "requeue":
            row["requeued"] += 1
        elif kind == "fenced":
            row["fenced"] += 1
    rows = []
    for row in workers.values():
        window = max(1e-9, row["last_t"] - row["first_t"])
        row["runs_per_s"] = (
            round(row["completed"] / window, 4) if row["completed"] else 0.0
        )
        row["idle_s"] = round(max(0.0, now - row["last_t"]), 3)
        rows.append(row)
    rows.sort(key=lambda r: (r["host"], r["pid"]))
    return rows


def fleet_metrics(
    store_root: str | Path,
    *,
    census: Mapping[str, object] | None = None,
    now: float | None = None,
) -> dict[str, object]:
    """One store's observability document: queue census + event-derived
    counters, per-worker throughput and the three SLO histograms.

    The census rides along (``repro top`` and ``/metrics`` need both);
    pass a pre-computed one to avoid a second directory scan.
    """
    from repro.campaign.queue import WorkQueue, has_queue

    store_root = Path(store_root)
    now = time.time() if now is None else now
    if census is None:
        census = (
            WorkQueue(store_root).status()
            if has_queue(store_root)
            else {
                "store": str(store_root), "pending": 0, "claimable": 0,
                "leased": 0, "failed": 0, "quarantined": 0,
                "completed": 0, "stale": 0, "heartbeat_age_max_s": 0.0,
                "leases": [],
            }
        )
    events = read_fleet_events(store_root)
    counters = {name: 0 for name in _KIND_COUNTERS.values()}
    requeue_reasons: dict[str, int] = {}
    traces: set[str] = set()
    for event in events:
        counter = _KIND_COUNTERS.get(str(event.get("kind")))
        if counter is not None:
            counters[counter] += 1
        if event.get("kind") == "requeue":
            reason = str(event.get("reason", "")) or "unknown"
            requeue_reasons[reason] = requeue_reasons.get(reason, 0) + 1
        trace = event.get(TRACE_KEY)
        if isinstance(trace, str) and trace:
            traces.add(trace)
    waits, execs, totals = _slo_samples(events)
    slo = {}
    for name, samples in (
        ("queue_wait_seconds", waits),
        ("execution_seconds", execs),
        ("end_to_end_seconds", totals),
    ):
        hist = Histogram(SLO_SECONDS_EDGES)
        for sample in samples:
            hist.observe(sample)
        slo[name] = hist.as_dict()
    return {
        "store": str(store_root),
        "census": dict(census),
        "counters": counters,
        "requeue_reasons": dict(sorted(requeue_reasons.items())),
        "slo": slo,
        "workers": _worker_rows(events, now),
        "traces": sorted(traces),
        "events": len(events),
    }


def merge_fleet_metrics(docs: Iterable[Mapping]) -> dict[str, object]:
    """Fold per-store documents into one fleet-wide view (the shape
    :func:`fleet_metrics` returns, stores listed under ``"stores"``)."""
    merged: dict[str, object] = {
        "stores": [],
        "census": {
            "pending": 0, "claimable": 0, "leased": 0, "completed": 0,
            "failed": 0, "quarantined": 0, "stale": 0,
            "heartbeat_age_max_s": 0.0, "leases": [],
        },
        "counters": {name: 0 for name in _KIND_COUNTERS.values()},
        "requeue_reasons": {},
        "slo": {},
        "workers": [],
        "traces": [],
        "events": 0,
    }
    census: dict = merged["census"]  # type: ignore[assignment]
    counters: dict = merged["counters"]  # type: ignore[assignment]
    reasons: dict = merged["requeue_reasons"]  # type: ignore[assignment]
    slo_hists: dict[str, Histogram] = {}
    traces: set[str] = set()
    for doc in docs:
        merged["stores"].append(doc.get("store", ""))  # type: ignore[union-attr]
        doc_census = doc.get("census", {})
        for key in ("pending", "claimable", "leased", "completed",
                    "failed", "quarantined", "stale"):
            census[key] += int(doc_census.get(key, 0))  # type: ignore[arg-type]
        census["heartbeat_age_max_s"] = max(
            float(census["heartbeat_age_max_s"]),
            float(doc_census.get("heartbeat_age_max_s", 0.0)),  # type: ignore[arg-type]
        )
        census["leases"].extend(doc_census.get("leases", []))
        for name, value in doc.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for reason, value in doc.get("requeue_reasons", {}).items():
            reasons[reason] = reasons.get(reason, 0) + int(value)
        for name, payload in doc.get("slo", {}).items():
            hist = Histogram.from_dict(payload)
            if name in slo_hists:
                slo_hists[name].merge(hist)
            else:
                slo_hists[name] = hist
        merged["workers"].extend(doc.get("workers", []))  # type: ignore[union-attr]
        traces.update(
            t for t in doc.get("traces", []) if isinstance(t, str)
        )
        merged["events"] = int(merged["events"]) + int(doc.get("events", 0))
    merged["slo"] = {
        name: hist.as_dict() for name, hist in sorted(slo_hists.items())
    }
    merged["traces"] = sorted(traces)
    return merged


# ----------------------------------------------------------------------
# Prometheus text rendering
# ----------------------------------------------------------------------
def _prom_number(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _series(lines: list[str], name: str, value: float) -> None:
    kind, help_text = METRIC_NAMES[name]
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")
    lines.append(f"{name} {_prom_number(value)}")


def _histogram_series(
    lines: list[str], name: str, payload: Mapping[str, object]
) -> None:
    kind, help_text = METRIC_NAMES[name]
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")
    hist = Histogram.from_dict(payload)
    cumulative = 0
    for edge, count in zip(hist.edges, hist.counts):
        cumulative += count
        lines.append(
            f'{name}_bucket{{le="{_prom_number(edge)}"}} {cumulative}'
        )
    cumulative += hist.counts[-1]
    lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
    lines.append(f"{name}_sum {repr(hist.total)}")
    lines.append(f"{name}_count {hist.count}")


def render_prometheus(
    doc: Mapping[str, object],
    *,
    admission: Mapping[str, int] | None = None,
) -> str:
    """Render a (merged) fleet-metrics document as Prometheus text.

    Every series name comes from :data:`METRIC_NAMES`; *admission* is
    the server's live counter snapshot (``GET /metrics`` only).
    """
    lines: list[str] = []
    census = doc.get("census", {})
    for key in ("pending", "claimable", "leased", "completed",
                "failed", "quarantined"):
        _series(lines, f"repro_queue_{key}", int(census.get(key, 0)))  # type: ignore[union-attr]
    _series(lines, "repro_lease_stale", int(census.get("stale", 0)))  # type: ignore[union-attr]
    _series(
        lines, "repro_lease_heartbeat_age_max_seconds",
        float(census.get("heartbeat_age_max_s", 0.0)),  # type: ignore[union-attr]
    )
    counters = doc.get("counters", {})
    for short, series in (
        ("enqueued", "repro_runs_enqueued_total"),
        ("claimed", "repro_runs_claimed_total"),
        ("completed", "repro_runs_completed_total"),
        ("requeued", "repro_runs_requeued_total"),
        ("reclaimed", "repro_runs_reclaimed_total"),
        ("fenced", "repro_runs_fenced_total"),
        ("failed", "repro_runs_failed_total"),
        ("quarantined", "repro_runs_quarantined_total"),
    ):
        _series(lines, series, int(counters.get(short, 0)))  # type: ignore[union-attr]
    for name, payload in doc.get("slo", {}).items():  # type: ignore[union-attr]
        _histogram_series(lines, f"repro_slo_{name}", payload)
    if admission is not None:
        for short, series in _ADMISSION_SERIES.items():
            if short in admission:
                _series(lines, series, int(admission[short]))
    return "\n".join(lines) + "\n"
