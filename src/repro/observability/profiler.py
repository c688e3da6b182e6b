"""Hot-loop profiler: where does simulation wall-clock actually go?

Attributes real time to (a) event kinds — measured around the
engine's handler dispatch, the only place every event passes through
— and (b) named scheduler phases (``placement``, ``dispatch``,
``interference``, ``metrics``) timed explicitly by the workload
manager.  Sampling is two ``perf_counter_ns`` calls per measured
section; each profiled site has one body that reads the clock only
when the profiler is armed, so disarmed it costs ``is not None``
tests and no clock reads.

The profiler holds integer nanosecond totals only — no handles, no
clocks at rest — so it pickles inside snapshots like every other
telemetry object.  Wall-clock totals are obviously not
deterministic; they live in telemetry sidecars and ``--json`` profile
sections, never in result payloads.
"""

from __future__ import annotations

from repro.engine.events import EventKind


class HotLoopProfiler:
    """Accumulates call counts and wall nanoseconds per label."""

    __slots__ = ("event_ns", "phase_ns")

    def __init__(self) -> None:
        #: Per event kind: [dispatches, total nanoseconds].
        self.event_ns: dict[EventKind, list[int]] = {}
        #: Per scheduler-phase name: [calls, total nanoseconds].
        self.phase_ns: dict[str, list[int]] = {}

    # ------------------------------------------------------------------
    # Recording (manual start/stop keeps per-event overhead minimal)
    # ------------------------------------------------------------------
    def record_event(self, kind: EventKind, elapsed_ns: int) -> None:
        cell = self.event_ns.get(kind)
        if cell is None:
            self.event_ns[kind] = [1, elapsed_ns]
        else:
            cell[0] += 1
            cell[1] += elapsed_ns

    def record_phase(self, phase: str, elapsed_ns: int) -> None:
        cell = self.phase_ns.get(phase)
        if cell is None:
            self.phase_ns[phase] = [1, elapsed_ns]
        else:
            cell[0] += 1
            cell[1] += elapsed_ns

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @property
    def total_event_ns(self) -> int:
        return sum(ns for _, ns in self.event_ns.values())

    def as_dict(self) -> dict[str, object]:
        """JSON-ready profile section (sorted by time, hottest first)."""

        def section(table: dict[str, list[int]]) -> dict[str, dict]:
            ordered = sorted(table.items(), key=lambda kv: (-kv[1][1], kv[0]))
            return {
                name: {
                    "calls": calls,
                    "wall_ms": ns / 1e6,
                    "mean_us": (ns / calls) / 1e3 if calls else 0.0,
                }
                for name, (calls, ns) in ordered
            }

        return {
            "events": section({k.name: cell for k, cell in self.event_ns.items()}),
            "phases": section(self.phase_ns),
            "total_event_ms": self.total_event_ns / 1e6,
        }
