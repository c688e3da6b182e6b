"""Telemetry subsystem: metrics registry, decision tracing, hot-loop
profiling and Perfetto export.

Everything here is *purely observational*: armed or disarmed, the
simulation's results are byte-identical.  Disarmed (the default), the
scheduler holds ``None`` in place of the decision trace (which owns
the metrics hub) and the profiler, and pays one ``is not None`` test
per instrumented site.
"""

from repro.observability.config import TelemetryConfig
from repro.observability.events import (
    METRIC_NAMES,
    PROMETHEUS_CONTENT_TYPE,
    SLO_SECONDS_EDGES,
    TRACE_KEY,
    EventLog,
    current_trace,
    fleet_metrics,
    merge_fleet_metrics,
    read_fleet_events,
    render_prometheus,
    set_current_trace,
)
from repro.observability.histogram import (
    DEFAULT_SECONDS_EDGES,
    Histogram,
    count_histogram,
    size_class_labels,
    size_class_of,
)
from repro.observability.hub import TelemetryHub, merge_hub_dicts
from repro.observability.perfetto import (
    CLUSTER_PID,
    SCHEDULER_PID,
    perfetto_trace,
    validate_trace,
    write_trace,
)
from repro.observability.profiler import HotLoopProfiler
from repro.observability.stats import (
    aggregate_store,
    read_telemetry_sidecars,
    telemetry_dir_for,
    telemetry_path_for,
    write_telemetry_sidecar,
)
from repro.observability.stitch import (
    LEASE_PID,
    SERVICE_PID,
    WORKER_PID,
    stitch_store,
)
from repro.observability.trace import REASON_CODES, DecisionTrace

__all__ = [
    "CLUSTER_PID",
    "DEFAULT_SECONDS_EDGES",
    "DecisionTrace",
    "EventLog",
    "LEASE_PID",
    "METRIC_NAMES",
    "PROMETHEUS_CONTENT_TYPE",
    "SCHEDULER_PID",
    "SERVICE_PID",
    "SLO_SECONDS_EDGES",
    "TRACE_KEY",
    "WORKER_PID",
    "Histogram",
    "HotLoopProfiler",
    "REASON_CODES",
    "TelemetryConfig",
    "TelemetryHub",
    "aggregate_store",
    "count_histogram",
    "current_trace",
    "fleet_metrics",
    "merge_fleet_metrics",
    "merge_hub_dicts",
    "perfetto_trace",
    "read_fleet_events",
    "read_telemetry_sidecars",
    "render_prometheus",
    "set_current_trace",
    "size_class_labels",
    "size_class_of",
    "stitch_store",
    "telemetry_dir_for",
    "telemetry_path_for",
    "validate_trace",
    "write_telemetry_sidecar",
    "write_trace",
]
