"""Strategy interface and scheduling context.

A strategy is a pure decision function: given a snapshot of the
system (:class:`ScheduleContext`), it returns the list of
:class:`Placement` s to start *now*, in order.  It never mutates the
cluster — the workload manager applies placements — but it does
consume from the context's :class:`~repro.core.selector.
AvailabilityView` so successive placements within one pass see a
consistent picture.

Strategies only see scheduler-legal information: requested node
counts, requested walltimes (via :meth:`ScheduleContext.walltime_bound`)
and application names/profiles.  Ground-truth runtimes stay inside the
simulator.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cluster.allocation import AllocationKind
from repro.cluster.machine import Cluster
from repro.errors import ConfigError, SchedulingError
from repro.interference.profile import ResourceProfile
from repro.slurm.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pairing import PairingPolicy
    from repro.core.selector import AvailabilityView, ResidentGroup
    from repro.observability.trace import DecisionTrace


@dataclass(frozen=True)
class Placement:
    """A decision to start one job now on specific nodes."""

    job: Job
    node_ids: tuple[int, ...]
    kind: AllocationKind

    def __post_init__(self) -> None:
        if len(self.node_ids) != self.job.num_nodes:
            raise SchedulingError(
                f"placement for job {self.job.job_id} grants "
                f"{len(self.node_ids)} nodes, requested {self.job.num_nodes}"
            )
        if len(set(self.node_ids)) != len(self.node_ids):
            raise SchedulingError(
                f"placement for job {self.job.job_id} repeats nodes"
            )


@dataclass
class ScheduleContext:
    """Everything a strategy may look at during one pass."""

    now: float
    cluster: Cluster
    #: Pending jobs in priority order (highest first).
    pending: list[Job]
    #: Running jobs by id.
    running: dict[int, Job]
    #: Resource profile for a job (falls back to a default profile).
    profile_of: Callable[[Job], ResourceProfile]
    #: Upper bound on a running job's end time (walltime-based; what a
    #: real scheduler knows).
    predicted_end: Callable[[Job], float]
    #: Co-allocation compatibility policy.
    pairing: "PairingPolicy"
    #: Walltime-dilation grace applied to shared placements.
    walltime_grace: float = 2.0
    #: Whether a shareable job may open idle nodes in shared mode.
    allow_open_shared: bool = True
    #: Prefer idle-node picks spanning few racks (SLURM topology
    #: plugin behaviour); see SchedulerConfig.topology_aware.
    topology_aware: bool = False
    #: Optional system-generated runtime prediction (seconds) used in
    #: place of the raw walltime request for *scheduling* estimates.
    predict_runtime: Callable[[Job], float] | None = None
    #: Nodes under failure suspicion (recently failed, not yet
    #: drained); the availability view orders them last so placements
    #: prefer clean nodes.  Empty unless blacklisting is configured.
    avoid_nodes: frozenset[int] = frozenset()
    #: Optional decision trace; the placement helpers emit one coded
    #: record per probe through it.  ``None`` when telemetry is off —
    #: purely observational either way.
    decisions: "DecisionTrace | None" = None
    #: Node id -> walltime release bound of its occupants, kept by
    #: the manager (read, never written); None means
    #: :func:`~repro.core.easy_backfill.node_release_times` scans the
    #: running jobs through ``predicted_end``.
    release_bounds: dict[int, float] | None = None
    #: Resident job id -> its group, for every joinable running job,
    #: kept by the manager (read, never written; the availability
    #: view copies it); None means the view builds the groups.
    groups: "dict[int, ResidentGroup] | None" = None
    #: Mutable availability the strategy consumes while placing.
    view: "AvailabilityView" = field(default=None)  # type: ignore[assignment]

    def walltime_bound(self, job: Job, kind: AllocationKind) -> float:
        """Duration bound the scheduler assumes for a placement."""
        base = (
            self.predict_runtime(job)
            if self.predict_runtime is not None
            else job.spec.walltime_req
        )
        if kind is AllocationKind.SHARED:
            return base * self.walltime_grace
        return base


def raise_release_bounds(
    bounds: dict[int, float], node_ids: tuple[int, ...], end: float
) -> None:
    """Raise each node's release bound in *bounds* to at least *end*:
    a shared node frees only when the later of its occupants does."""
    if bounds.keys().isdisjoint(node_ids):
        # No node has a bound yet (the common case: idle nodes).
        bounds.update(dict.fromkeys(node_ids, end))
        return
    for node_id in node_ids:
        prev = bounds.get(node_id)
        bounds[node_id] = end if prev is None else max(prev, end)


class Strategy(abc.ABC):
    """Base class for scheduling strategies."""

    #: Short machine-readable name used in configs, reports, benches.
    name: str = "abstract"
    #: Whether the strategy benefits from periodic (timer-driven)
    #: passes in addition to event-driven ones.
    wants_periodic_pass: bool = False

    @abc.abstractmethod
    def schedule(self, ctx: ScheduleContext) -> list[Placement]:
        """Decide which pending jobs start now."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def make_strategy(name: str, **kwargs: object) -> Strategy:
    """Instantiate a strategy by its registry name.

    Recognised names: ``fcfs``, ``first_fit``, ``easy_backfill``,
    ``conservative``, ``shared_first_fit``, ``shared_backfill``.
    """
    from repro.core.conservative import ConservativeBackfillStrategy
    from repro.core.easy_backfill import EasyBackfillStrategy
    from repro.core.fcfs import FcfsStrategy
    from repro.core.first_fit import FirstFitStrategy
    from repro.core.shared_backfill import SharedBackfillStrategy
    from repro.core.shared_conservative import SharedConservativeStrategy
    from repro.core.shared_first_fit import SharedFirstFitStrategy

    registry: dict[str, type[Strategy]] = {
        FcfsStrategy.name: FcfsStrategy,
        FirstFitStrategy.name: FirstFitStrategy,
        EasyBackfillStrategy.name: EasyBackfillStrategy,
        ConservativeBackfillStrategy.name: ConservativeBackfillStrategy,
        SharedFirstFitStrategy.name: SharedFirstFitStrategy,
        SharedBackfillStrategy.name: SharedBackfillStrategy,
        SharedConservativeStrategy.name: SharedConservativeStrategy,
    }
    try:
        cls = registry[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; known: {sorted(registry)}"
        ) from None
    return cls(**kwargs)  # type: ignore[arg-type]


def all_strategy_names() -> tuple[str, ...]:
    """Names of all registered strategies (baselines then sharing)."""
    return (
        "fcfs",
        "first_fit",
        "easy_backfill",
        "conservative",
        "shared_first_fit",
        "shared_backfill",
        "shared_conservative",
    )
