"""Declarative configuration of the diagnostics layer.

One frozen, JSON-round-trippable object describes everything the
engine needs to arm crash diagnostics: whether the simulator keeps a
flight ring, how many events it retains, and the watchdog
thresholds.  The config travels inside :class:`~repro.slurm.config.
SchedulerConfig` and therefore inside campaign ``params`` dicts, so a
replay bundle re-executes with exactly the diagnostics that produced
the original crash.

Everything here is inert on the happy path: the flight ring only
influences *outputs* when an error escapes the event loop, and both
watchdogs are off (``None``) by default.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping

from repro.errors import ConfigError

#: Default ring-buffer capacity: enough context to see the scheduling
#: decisions leading into a crash without bloating bundles.
DEFAULT_RING_SIZE = 256


@dataclass(frozen=True)
class DiagnosticsConfig:
    """All tunables of the crash-diagnostics machinery.

    Attributes
    ----------
    flight_recorder:
        Keep the simulator's flight ring, the last ``ring_size``
        dispatched events, dumped into the crash report when a
        :class:`~repro.errors.ReproError` escapes the event loop.
    ring_size:
        Events retained by the flight ring.
    wall_clock_limit_s:
        Wall-clock budget for one :meth:`Simulator.run` call; exceeding
        it raises :class:`~repro.errors.WatchdogError` (kind
        ``"wall_clock"``) instead of hanging a campaign worker until
        its external timeout.  ``None`` disables the watchdog.
    stall_event_limit:
        Maximum events dispatched at a single simulated timestamp
        before the progress guard raises :class:`~repro.errors.
        WatchdogError` (kind ``"sim_progress"``).  Catches zero-delay
        event loops long before ``max_events`` would.  ``None``
        disables the guard.
    max_events:
        Override of the engine's lifetime ``max_events`` backstop
        (``None`` keeps the engine default).
    """

    flight_recorder: bool = True
    ring_size: int = DEFAULT_RING_SIZE
    wall_clock_limit_s: float | None = None
    stall_event_limit: int | None = None
    max_events: int | None = None

    def __post_init__(self) -> None:
        if self.ring_size < 1:
            raise ConfigError(f"ring_size must be >= 1, got {self.ring_size}")
        if self.wall_clock_limit_s is not None and self.wall_clock_limit_s < 0:
            raise ConfigError("wall_clock_limit_s must be >= 0 or None")
        if self.stall_event_limit is not None and self.stall_event_limit < 1:
            raise ConfigError("stall_event_limit must be >= 1 or None")
        if self.max_events is not None and self.max_events < 1:
            raise ConfigError("max_events must be >= 1 or None")

    # ------------------------------------------------------------------
    # (De)serialisation — stable keys for campaign content hashing
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "DiagnosticsConfig":
        known = set(DiagnosticsConfig.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown diagnostics config keys: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        return DiagnosticsConfig(**dict(data))  # type: ignore[arg-type]
