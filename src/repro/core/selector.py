"""Availability tracking and node selection within one scheduler pass.

Strategies place several jobs per pass; each placement consumes idle
nodes or sharing capacity.  :class:`AvailabilityView` mirrors cluster
availability at pass start and is updated as the strategy commits
placements, so the resulting placement list applies cleanly.

Sharing capacity is exposed as **resident groups**, not individual
lanes.  Because jobs are bulk-synchronous (a job runs at the speed of
its slowest node), partially sharing a resident's nodes slows the
resident on *all* of its nodes while adding capacity on only some —
a net loss.  Profitable co-allocation therefore requires the joiner
to cover each joined resident's node set completely (the paper pairs
jobs over coinciding node sets).  A group is a running shared job all
of whose nodes still have a free SMT lane; joiners take whole groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import SchedulingError
from repro.interference.profile import ResourceProfile
from repro.slurm.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machine import Cluster
    from repro.core.strategy import ScheduleContext


@dataclass(frozen=True)
class ResidentGroup:
    """A joinable running job: its identity, profile and node set."""

    job: Job
    profile: ResourceProfile
    node_ids: tuple[int, ...]
    #: Smallest installed memory across ``node_ids``, read once from
    #: the cluster when the view builds the group (what a joiner must
    #: fit beside the resident).
    min_memory_mb: int = 0

    @property
    def size(self) -> int:
        return len(self.node_ids)


def resident_group(
    cluster: "Cluster", job: Job, profile: ResourceProfile
) -> ResidentGroup:
    """The group of running shared *job*, whose profile is *profile*."""
    node_ids = job.allocation.node_ids
    return ResidentGroup(
        job=job,
        profile=profile,
        node_ids=node_ids,
        min_memory_mb=cluster.min_memory_of(node_ids),
    )


def scan_groups(
    cluster: "Cluster",
    running: dict[int, Job],
    profile_of: Callable[[Job], ResourceProfile],
) -> dict[int, ResidentGroup]:
    """The group of every joinable job in *running*, built from
    scratch, by ascending job id."""
    groups: dict[int, ResidentGroup] = {}
    for job_id in cluster.joinable_job_ids():
        job = running.get(job_id)
        if job is not None:
            groups[job_id] = resident_group(cluster, job, profile_of(job))
    return groups


class AvailabilityView:
    """Mutable availability snapshot for one scheduling pass."""

    def __init__(self, ctx: "ScheduleContext") -> None:
        self._ctx = ctx
        cluster = ctx.cluster
        #: Idle node ids, ascending (first-fit order == node order,
        #: which is also what SLURM's linear selector does).  Nodes
        #: under failure suspicion sort last, so placements drain onto
        #: them only when nothing cleaner is available.
        self.idle: list[int] = cluster.idle_node_ids()
        if ctx.avoid_nodes:
            self.idle = [n for n in self.idle if n not in ctx.avoid_nodes] + [
                n for n in self.idle if n in ctx.avoid_nodes
            ]
        #: Joinable resident groups keyed by resident job id: a copy
        #: of the groups the manager keeps, else built from scratch.
        self.groups: dict[int, ResidentGroup] = (
            scan_groups(cluster, ctx.running, ctx.profile_of)
            if ctx.groups is None else ctx.groups.copy()
        )
        #: Bitmask of the subset sums of the groups' sizes (bit s set
        #: iff some groups together hold s nodes); None until asked
        #: for after the groups last changed.
        self._sums: int | None = None
        #: Profile -> its :meth:`joinable_groups` list, until the
        #: groups next change.
        self._joinable: dict[ResourceProfile, list[ResidentGroup]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def ctx(self) -> "ScheduleContext":
        """The owning context (placement helpers reach the decision
        trace through this)."""
        return self._ctx

    @property
    def idle_count(self) -> int:
        return len(self.idle)

    @property
    def has_groups(self) -> bool:
        return bool(self.groups)

    def may_cover(self, need: int) -> bool:
        """Whether some of the groups hold exactly *need* nodes between
        them: necessary for any join of that size to exist."""
        sums = self._sums
        if sums is None:
            sums = 1
            for group in self.groups.values():
                sums |= sums << len(group.node_ids)
            self._sums = sums
        return (sums >> need) & 1 == 1

    def rules_out(self, job: Job) -> bool:
        """Whether *job* certainly cannot be placed now: it needs more
        nodes than are idle, and it either may not share or no groups
        sum to its size.  Then every join, open-shared and exclusive
        probe would fail, so callers skip them, armed trace or not;
        a skipped probe records nothing."""
        need = job.spec.num_nodes
        return need > len(self.idle) and (
            not job.spec.shareable or not self.may_cover(need)
        )

    def joinable_groups(self, profile: ResourceProfile) -> list[ResidentGroup]:
        """Groups whose resident is compatible with *profile*, best
        predicted pair throughput first (stable on resident id).

        Memoised per profile until the groups change; callers must
        not mutate the returned list.
        """
        candidates = self._joinable.get(profile)
        if candidates is not None:
            return candidates
        pairing = self._ctx.pairing
        candidates = [
            group
            for group in self.groups.values()
            if pairing.compatible(profile, group.profile)
        ]
        candidates.sort(
            key=lambda g: (-pairing.score(profile, g.profile), g.job.job_id)
        )
        self._joinable[profile] = candidates
        return candidates

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def take_idle(self, count: int) -> list[int]:
        """Remove and return *count* idle nodes.

        Linear mode (default) takes the lowest ids — SLURM's linear
        selector.  Topology-aware mode greedily packs the request into
        the racks holding the most idle nodes, minimising the racks
        spanned (SLURM's topology plugin behaviour).
        """
        if count > len(self.idle):
            raise SchedulingError(
                f"requested {count} idle nodes, only {len(self.idle)} available"
            )
        if not self._ctx.topology_aware:
            taken, self.idle = self.idle[:count], self.idle[count:]
            return taken
        rack_of = self._ctx.cluster.topology.rack_of
        by_rack: dict[int, list[int]] = {}
        for node_id in self.idle:
            by_rack.setdefault(rack_of[node_id], []).append(node_id)
        # Fullest racks first (ties: lowest rack id) packs the request
        # into as few racks as a greedy pass can.
        ordered_racks = sorted(by_rack, key=lambda r: (-len(by_rack[r]), r))
        taken: list[int] = []
        for rack in ordered_racks:
            need = count - len(taken)
            if need == 0:
                break
            taken.extend(by_rack[rack][:need])
        taken_set = set(taken)
        self.idle = [n for n in self.idle if n not in taken_set]
        return taken

    def take_group(self, group: ResidentGroup) -> None:
        """Consume a resident group (its lanes are now committed)."""
        if group.job.job_id not in self.groups:
            raise SchedulingError(
                f"group of job {group.job.job_id} is not available"
            )
        del self.groups[group.job.job_id]
        self._groups_changed()

    def open_shared(
        self, node_ids: list[int], job: Job, profile: ResourceProfile
    ) -> None:
        """Record that *job* opened these (formerly idle) nodes in
        shared mode; the new group is joinable later this pass."""
        if job.job_id in self.groups:
            raise SchedulingError(f"job {job.job_id} already owns a group")
        self._add_group(job, profile, tuple(node_ids))
        self._groups_changed()

    def _groups_changed(self) -> None:
        self._sums = None
        self._joinable.clear()

    def _add_group(
        self, job: Job, profile: ResourceProfile, node_ids: tuple[int, ...]
    ) -> None:
        self.groups[job.job_id] = ResidentGroup(
            job=job,
            profile=profile,
            node_ids=node_ids,
            min_memory_mb=self._ctx.cluster.min_memory_of(node_ids),
        )
