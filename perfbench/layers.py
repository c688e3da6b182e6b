"""Per-layer attribution for the traced run.

:func:`install` wraps the public calls into each layer of
``src/repro`` from outside the program; :func:`layer_metrics` turns
the recorded spans into the per-layer metrics, every one of them on
every workload (a layer a workload does not reach reads 0).  Times
named ``*_s`` are self times (the span minus its traced children),
except ``engine.run_s`` and ``archive.window_s``, which are the
inclusive roots the other layers' self times are measured against.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from spans import Span, Tracer, by_name, coverage

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS: dict[str, str] = {
    "engine.events": "count",
    "engine.passes": "count",
    "engine.placements": "count",
    "engine.pass_yield": "ratio",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "core.schedule_calls": "count",
    "core.schedule_s": "s",
    "core.view_build_s": "s",
    "slurm.handlers_s": "s",
    "slurm.order_calls": "count",
    "slurm.order_s": "s",
    "slurm.pending_depth_mean": "count",
    "slurm.pending_depth_max": "count",
    "slurm.extend_s": "s",
    "slurm.compact_s": "s",
    "cluster.idle_scan_s": "s",
    "cluster.running_ids_s": "s",
    "cluster.allocate_s": "s",
    "metrics.sample_calls": "count",
    "metrics.sample_s": "s",
    "interference.speed_calls": "count",
    "interference.speed_s": "s",
    "snapshot.writes": "count",
    "snapshot.write_s": "s",
    "snapshot.read_s": "s",
    "snapshot.bytes_mean": "B",
    "archive.windows": "count",
    "archive.window_s": "s",
    "archive.load_s": "s",
    "archive.columnar_append_s": "s",
    "archive.overhead_frac": "ratio",
    "campaign.run_exec_s": "s",
    "campaign.store_save_s": "s",
    "campaign.overhead_per_run_ms": "ms",
    "campaign.queue_wait_s": "s",
    "campaign.queue_exec_s": "s",
    "campaign.requeues": "count",
    "campaign.reclaims": "count",
    "service.submit_s": "s",
    "service.status_s": "s",
    "service.shed": "count",
    "service.worker_spawns": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "trace.spans": "count",
    "scale.jobs": "count",
    "scale.nodes": "count",
    "scale.windows": "count",
    "scale.runs": "count",
    "scale.submissions": "count",
}

#: ``WorkloadManager`` methods the manager registers as engine event
#: handlers.
_HANDLERS = ("_on_submit", "_on_finish", "_on_timeout", "_on_cancel",
             "_on_scheduler_pass", "_on_backfill_tick")

#: Span name -> the ``*_s`` metric holding its self time.
_SELF_TIME = {
    "slurm.handler": "slurm.handlers_s",
    "core.schedule": "core.schedule_s",
    "core.view_build": "core.view_build_s",
    "slurm.order": "slurm.order_s",
    "slurm.extend": "slurm.extend_s",
    "slurm.compact": "slurm.compact_s",
    "cluster.idle_scan": "cluster.idle_scan_s",
    "cluster.running_ids": "cluster.running_ids_s",
    "cluster.allocate": "cluster.allocate_s",
    "metrics.sample": "metrics.sample_s",
    "interference.speed": "interference.speed_s",
    "snapshot.write": "snapshot.write_s",
    "snapshot.read": "snapshot.read_s",
    "archive.load": "archive.load_s",
    "archive.columnar_append": "archive.columnar_append_s",
    "campaign.store_save": "campaign.store_save_s",
    "service.submit": "service.submit_s",
    "service.status": "service.status_s",
}

#: Span name -> the metric counting its calls.
_CALLS = {
    "core.schedule": "core.schedule_calls",
    "slurm.order": "slurm.order_calls",
    "metrics.sample": "metrics.sample_calls",
    "interference.speed": "interference.speed_calls",
    "snapshot.write": "snapshot.writes",
    "archive.window": "archive.windows",
}


def _engine_before(args: tuple, kwargs: dict) -> tuple[int, int, int]:
    manager = args[0]
    return (manager.sim.events_dispatched, manager.scheduler_passes,
            manager.placements_applied)


def _engine_counts(args, kwargs, result, before) -> dict[str, float]:
    manager = args[0]
    return {
        "events": manager.sim.events_dispatched - before[0],
        "passes": manager.scheduler_passes - before[1],
        "placements": manager.placements_applied - before[2],
    }


def _depth(args, kwargs, result, before) -> dict[str, float]:
    return {"depth": len(result)}


def _snapshot_bytes(args, kwargs, result, before) -> dict[str, float]:
    return {"bytes": Path(result).stat().st_size}


def _strategy_classes() -> list[type]:
    import repro.core  # noqa: F401 - registers every strategy class
    from repro.core.strategy import Strategy

    found, todo = [], [Strategy]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap each layer's public calls; :meth:`Tracer.restore` undoes it."""
    import repro.archive.replay as replay
    import repro.snapshot.state as snapshot
    from repro.archive.columnar import ColumnarStore
    from repro.archive.ingest import Archive
    from repro.campaign.store import ResultStore
    from repro.cluster.machine import Cluster
    from repro.core.selector import AvailabilityView
    from repro.interference.model import InterferenceModel
    from repro.metrics.collector import MetricsCollector
    from repro.service.submit import SubmissionRegistry
    from repro.slurm.manager import WorkloadManager
    from repro.slurm.queue import PendingQueue

    tracer.patch(WorkloadManager, "run", "engine.run",
                 _engine_counts, _engine_before)
    # The handlers a manager registers with the engine (Simulator.on)
    # are where the engine loop enters the slurm layer; a manager binds
    # them when it is built or restored, so only managers built or
    # restored while traced are timed.
    for handler in _HANDLERS:
        tracer.patch(WorkloadManager, handler, "slurm.handler")
    tracer.patch(WorkloadManager, "extend", "slurm.extend")
    tracer.patch(WorkloadManager, "compact_terminated", "slurm.compact")
    for cls in _strategy_classes():
        if "schedule" in cls.__dict__:
            tracer.patch(cls, "schedule", "core.schedule")
    tracer.patch(AvailabilityView, "__init__", "core.view_build")
    tracer.patch(PendingQueue, "ordered", "slurm.order", _depth)
    tracer.patch(Cluster, "idle_nodes", "cluster.idle_scan")
    tracer.patch(Cluster, "running_job_ids", "cluster.running_ids")
    tracer.patch(Cluster, "allocate", "cluster.allocate")
    tracer.patch(Cluster, "release", "cluster.allocate")
    for hook in ("on_submit", "on_start", "on_job_end", "on_sample",
                 "on_sim_end"):
        tracer.patch(MetricsCollector, hook, "metrics.sample")
    for cls in [InterferenceModel, *InterferenceModel.__subclasses__()]:
        if "speed" in cls.__dict__:
            tracer.patch(cls, "speed", "interference.speed")
    tracer.patch(snapshot, "write_snapshot", "snapshot.write", _snapshot_bytes)
    tracer.patch(snapshot, "read_snapshot", "snapshot.read")
    tracer.patch(replay, "execute_replay_window", "archive.window")
    tracer.patch(replay, "load_archive", "archive.load")
    tracer.patch(Archive, "window_trace", "archive.load")
    tracer.patch(ColumnarStore, "append_once", "archive.columnar_append")
    tracer.patch(ResultStore, "save", "campaign.store_save")
    tracer.patch(SubmissionRegistry, "submit", "service.submit")
    tracer.patch(SubmissionRegistry, "status", "service.status")


@contextlib.contextmanager
def tracing(tracer: Tracer | None) -> Iterator[None]:
    """Layers wrapped by *tracer* inside the block; no-op for None."""
    if tracer is None:
        yield
        return
    install(tracer)
    try:
        yield
    finally:
        tracer.restore()


def layer_metrics(
    spans: Sequence[Span],
    reps: int,
    root: str | None,
    extra: Mapping[str, float],
    scale: Mapping[str, float],
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` entry, per traced repetition.

    *root* names the span whose time :func:`coverage` checks (none:
    coverage reads 0); *extra*
    carries the figures read from the program's own records and
    *scale* the workload's input size.
    """
    rows = by_name(spans)
    out = {name: 0.0 for name in LAYER_METRICS}
    for span_name, metric in _SELF_TIME.items():
        if span_name in rows:
            out[metric] = rows[span_name]["self_s"] / reps
    for span_name, metric in _CALLS.items():
        if span_name in rows:
            out[metric] = rows[span_name]["calls"] / reps

    counts: dict[str, list[float]] = {}
    for span in spans:
        for key, value in (span.counts or {}).items():
            counts.setdefault(f"{span.name}.{key}", []).append(value)
    for key in ("events", "passes", "placements"):
        out[f"engine.{key}"] = sum(counts.get(f"engine.run.{key}", [])) / reps
    if out["engine.passes"]:
        out["engine.pass_yield"] = out["engine.placements"] / out["engine.passes"]
    depths = counts.get("slurm.order.depth", [])
    if depths:
        out["slurm.pending_depth_mean"] = sum(depths) / len(depths)
        out["slurm.pending_depth_max"] = max(depths)
    sizes = counts.get("snapshot.write.bytes", [])
    if sizes:
        out["snapshot.bytes_mean"] = sum(sizes) / len(sizes)

    run = rows.get("engine.run", {"total_s": 0.0, "self_s": 0.0})
    out["engine.run_s"] = run["total_s"] / reps
    out["engine.self_s"] = run["self_s"] / reps
    window = rows.get("archive.window")
    if window is not None:
        out["archive.window_s"] = window["total_s"] / reps
        out["archive.overhead_frac"] = (
            (window["total_s"] - run["total_s"]) / window["total_s"]
        )
    out["trace.coverage_frac"] = coverage(spans, root)
    out["trace.spans"] = len(spans) / reps
    for name, value in extra.items():
        out[name] = float(value)
    for name, value in scale.items():
        out[f"scale.{name}"] = float(value)
    return out
