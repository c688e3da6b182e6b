"""Declarative configuration of the telemetry layer.

Mirrors :class:`~repro.diagnostics.config.DiagnosticsConfig`: one
frozen, JSON-round-trippable object that travels inside
:class:`~repro.slurm.config.SchedulerConfig` (and therefore inside
campaign ``params`` dicts), so a traced run re-executes with exactly
the telemetry that produced the original records.

Telemetry is strictly observational and **off by default**: with
``enabled=False`` the manager allocates no decision trace (which owns
the metrics hub) and no profiler, and every telemetry check in the hot
path is a single ``x is not None`` test — the same inert-unless-armed
contract the diagnostics hooks follow.  Enabled or not, simulation *results* are
byte-identical (the test suite asserts this property).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

from repro.errors import ConfigError


@dataclass(frozen=True)
class TelemetryConfig:
    """All tunables of the observability machinery.

    Attributes
    ----------
    enabled:
        Master switch: arms the decision trace (structured records of
        scheduler passes, coded placement accepts and rejects,
        lifecycle transitions and failures) together with the metrics
        hub it owns.  Off (the default) means zero allocation and
        near-zero overhead.
    profile:
        Arm the hot-loop profiler attributing wall-clock to event
        kinds and scheduler phases.  Only meaningful with
        ``enabled=True``.
    decisions_path:
        Append decision records as JSONL to this file (with size-based
        rotation); ``None`` keeps records in memory only.
    """

    enabled: bool = False
    profile: bool = False
    decisions_path: str | None = None

    # ------------------------------------------------------------------
    # (De)serialisation — stable keys for campaign content hashing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "TelemetryConfig":
        known = set(TelemetryConfig.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown telemetry config keys: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        return TelemetryConfig(**dict(data))  # type: ignore[arg-type]
