"""TelemetryHub: counters, gauges and histograms for one run.

The hub is a plain in-process metrics registry sampled at event
boundaries by the workload manager.  It is pure bookkeeping — no
clocks, no I/O — so it pickles inside snapshots (telemetry survives
suspend/resume) and merges exactly across campaign workers: the
per-run sidecar files a telemetry-armed campaign writes are folded
back together with :func:`merge_hub_dicts`.

Each :class:`~repro.observability.trace.DecisionTrace` creates and
owns one hub.  Zero-overhead-when-off contract: the manager holds
``None`` instead of a trace when telemetry is disabled, so the cost of
the feature on the default path is one ``is not None`` test per
instrumented site.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import ConfigError
from repro.observability.histogram import DEFAULT_SECONDS_EDGES, Histogram


class TelemetryHub:
    """In-process metrics registry for one simulation run."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, delta: int = 1) -> None:
        """Bump a monotonically increasing counter."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of a point-in-time quantity."""
        self.gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        edges: Iterable[float] = DEFAULT_SECONDS_EDGES,
    ) -> None:
        """Add one observation to the named histogram (created on
        first use with *edges*)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(edges)
        hist.observe(value)

    # ------------------------------------------------------------------
    # Merge and export
    # ------------------------------------------------------------------
    def merge(self, other: "TelemetryHub") -> None:
        """Fold another hub into this one (campaign-level aggregation)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        # Gauges are point-in-time: last writer wins, like a scrape.
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                clone = Histogram(hist.edges)
                clone.merge(hist)
                self.histograms[name] = clone
            else:
                mine.merge(hist)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready export with stable key order."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].as_dict()
                for k in sorted(self.histograms)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TelemetryHub":
        hub = cls()
        counters = data.get("counters", {})
        gauges = data.get("gauges", {})
        histograms = data.get("histograms", {})
        if not all(
            isinstance(section, Mapping)
            for section in (counters, gauges, histograms)
        ):
            raise ConfigError("malformed telemetry hub payload")
        hub.counters = {str(k): int(v) for k, v in counters.items()}  # type: ignore[union-attr]
        hub.gauges = {str(k): float(v) for k, v in gauges.items()}  # type: ignore[union-attr]
        hub.histograms = {
            str(k): Histogram.from_dict(v)  # type: ignore[arg-type]
            for k, v in histograms.items()  # type: ignore[union-attr]
        }
        return hub


def merge_hub_dicts(payloads: Iterable[Mapping[str, object]]) -> dict[str, object]:
    """Merge serialised hub exports (e.g. per-run sidecar files) into
    one combined export, as ``repro stats`` does for a store."""
    combined = TelemetryHub()
    for payload in payloads:
        combined.merge(TelemetryHub.from_dict(payload))
    return combined.as_dict()
