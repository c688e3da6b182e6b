"""Application resource profiles.

A profile abstracts what co-run interference depends on: how hard the
application drives the core pipelines, the memory system, and the
last-level cache.  Profiles are normalised to one node — the mini-apps
in the evaluation are weak-scaling, so per-node behaviour is roughly
size-independent, which is also what makes a single pairwise matrix
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


def _check_unit(name: str, value: float, low: float = 0.0, high: float = 1.0) -> float:
    if not (low <= value <= high):
        raise ConfigError(f"{name}={value} outside [{low}, {high}]")
    return float(value)


@dataclass(frozen=True)
class ResourceProfile:
    """Per-node resource demands of one application.

    Attributes
    ----------
    name:
        Application label (e.g. ``"miniFE"``).
    core_demand:
        Fraction of a core's issue capacity the app keeps busy when
        running alone (α).  Compute-bound codes approach 1.0;
        latency-/bandwidth-bound codes idle the pipelines and sit much
        lower — this slack is what SMT sharing harvests.
    membw_demand:
        Fraction of the node's memory bandwidth consumed alone (β).
    cache_footprint:
        Fraction of the last-level cache the working set occupies (γ).
    comm_fraction:
        Fraction of runtime spent in communication; used by the
        scaling model, not by node-local contention.
    serial_fraction:
        Amdahl serial fraction; used by the scaling model.
    """

    name: str
    core_demand: float
    membw_demand: float
    cache_footprint: float
    comm_fraction: float = 0.1
    serial_fraction: float = 0.02

    def __post_init__(self) -> None:
        _check_unit("core_demand", self.core_demand, low=0.05)
        _check_unit("membw_demand", self.membw_demand)
        _check_unit("cache_footprint", self.cache_footprint)
        _check_unit("comm_fraction", self.comm_fraction)
        _check_unit("serial_fraction", self.serial_fraction)

    @property
    def is_compute_bound(self) -> bool:
        """Heuristic classification used in reports."""
        return self.core_demand >= 0.8 and self.membw_demand < 0.5

    @property
    def is_membw_bound(self) -> bool:
        return self.membw_demand >= 0.7

    @property
    def dominant_resource(self) -> str:
        demands = {
            "core": self.core_demand,
            "membw": self.membw_demand,
            "cache": self.cache_footprint,
        }
        return max(demands, key=demands.__getitem__)

    def __hash__(self) -> int:
        # The generated dataclass hash, computed once: profiles key the
        # pairing and interference memos on every probe.
        try:
            return self._hash
        except AttributeError:
            value = hash((
                self.name, self.core_demand, self.membw_demand,
                self.cache_footprint, self.comm_fraction,
                self.serial_fraction,
            ))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # The kept hash is derived: the pickled form is the fields only.
        state = self.__dict__
        if "_hash" in state:
            state = state.copy()
            del state["_hash"]
        return state

    def __str__(self) -> str:
        return (
            f"{self.name}(core={self.core_demand:.2f}, "
            f"bw={self.membw_demand:.2f}, cache={self.cache_footprint:.2f})"
        )
