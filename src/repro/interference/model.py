"""The interference model facade consumed by scheduler and simulator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.interference.contention import cache_factor, membw_factor
from repro.interference.profile import ResourceProfile
from repro.interference.smt import smt_core_factor


@dataclass(frozen=True)
class ModelParams:
    """Calibration knobs of the co-run model.

    Defaults are calibrated (see ``repro.analysis.calibration``) so the
    Trinity-like mini-app suite reproduces the qualitative pairing
    structure the paper reports: complementary compute×memory pairs
    gain 20–45 % combined throughput, bandwidth-saturating pairs lose,
    and a lone job is never slowed.
    """

    #: Extra SMT issue capacity at full complementarity (eps).
    smt_headroom: float = 0.35
    #: Per-thread speed ceiling while the sibling lane is active (sigma).
    corun_ceiling: float = 0.9
    #: Node memory-bandwidth capacity in profile units.
    membw_capacity: float = 1.0
    #: LLC overflow penalty coefficient.
    cache_penalty: float = 0.5
    #: Hard lower bound on any co-run speed.
    min_speed: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 <= self.smt_headroom <= 1.0):
            raise ConfigError(f"smt_headroom={self.smt_headroom} outside [0, 1]")
        if not (0.0 < self.corun_ceiling <= 1.0):
            raise ConfigError(f"corun_ceiling={self.corun_ceiling} outside (0, 1]")
        if self.membw_capacity <= 0:
            raise ConfigError("membw_capacity must be positive")
        if not (0.0 <= self.cache_penalty <= 1.0):
            raise ConfigError(f"cache_penalty={self.cache_penalty} outside [0, 1]")
        if not (0.0 < self.min_speed <= 1.0):
            raise ConfigError(f"min_speed={self.min_speed} outside (0, 1]")


class InterferenceModel:
    """Predicts per-job speed under node sharing.

    The central contract, relied on throughout the system:

    * ``speed(p, None) == 1.0`` — a job alone on a node (exclusive, or
      shared with an idle sibling lane) runs at baseline speed.
    * ``0 < speed(p, q) <= 1.0`` — a co-runner can only slow a job down.
    * Symmetric *structure*: ``speed(p, q)`` and ``speed(q, p)`` use the
      same mechanisms, though the values differ when footprints differ.
    """

    def __init__(self, params: ModelParams | None = None):
        self.params = params or ModelParams()
        #: (profile, co_profile) -> speed.  Keyed on the profile values
        #: (frozen dataclasses), so equal profiles share an entry and
        #: distinct ones never do; derived, so not pickled.
        self._speeds: dict[tuple[ResourceProfile, ResourceProfile], float] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_speeds", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # setattr interns the names as pickle's default restore does,
        # so a restored model pickles to the same bytes.
        for name, value in state.items():
            setattr(self, name, value)
        self._speeds = {}

    def speed(
        self, profile: ResourceProfile, co_profile: ResourceProfile | None
    ) -> float:
        """Speed of a job with *profile* given its node co-runner."""
        if co_profile is None:
            return 1.0
        key = (profile, co_profile)
        speed = self._speeds.get(key)
        if speed is None:
            speed = self._speeds[key] = self._predict(profile, co_profile)
        return speed

    def _predict(
        self, profile: ResourceProfile, co_profile: ResourceProfile
    ) -> float:
        p = self.params
        core = smt_core_factor(
            profile.core_demand,
            co_profile.core_demand,
            smt_headroom=p.smt_headroom,
            corun_ceiling=p.corun_ceiling,
        )
        bw = membw_factor(
            profile.membw_demand,
            co_profile.membw_demand,
            capacity=p.membw_capacity,
        )
        cache = cache_factor(
            profile.cache_footprint,
            co_profile.cache_footprint,
            penalty=p.cache_penalty,
        )
        return max(p.min_speed, core * bw * cache)

    def pair_throughput(
        self, profile_a: ResourceProfile, profile_b: ResourceProfile
    ) -> float:
        """Combined node throughput of a co-allocated pair, in
        job-units per node-second.

        1.0 equals one exclusive job's output; values above 1.0 mean
        the shared node outperforms an exclusive node, values up to
        2.0 mean the pair costs (almost) nothing over running either
        alone.
        """
        return self.speed(profile_a, profile_b) + self.speed(profile_b, profile_a)

    def dilation(
        self, profile: ResourceProfile, co_profile: ResourceProfile | None
    ) -> float:
        """Runtime multiplier a co-runner imposes (>= 1.0)."""
        return 1.0 / self.speed(profile, co_profile)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InterferenceModel({self.params})"
