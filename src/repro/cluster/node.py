"""A single compute node with 2-way SMT occupancy semantics.

Invariants (enforced by :meth:`Cluster.allocate` and
:meth:`Cluster.release`, which check a whole request before granting,
then set and clear each node's lane and mode inline, and
property-tested in the suite):

* An ``EXCLUSIVE`` node hosts exactly one job, on lane 0.
* A ``SHARED`` node hosts one or two jobs, on distinct SMT lanes; with
  one job, the other lane is the free one a joiner takes.
* Only a ``HEALTHY`` node is occupied.
* A job never occupies the same node twice.
* Releasing the last occupant returns the node to ``IDLE`` and clears
  its sharing mode — a node's mode is a property of its *current*
  occupancy, not sticky state.

The cluster relies on these to grant a joinable resident's nodes, and
to free a job's lanes, without re-checking each node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import AllocationError

#: Number of SMT hardware-thread lanes per physical core.  The paper's
#: mechanism is specifically two-way hyper-threading.
SMT_LANES = 2


class NodeMode(enum.Enum):
    """Current occupancy regime of a node."""

    IDLE = "idle"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"


class NodeHealth(enum.Enum):
    """Hardware health lifecycle of a node.

    ``HEALTHY -> FAILED -> REPAIRING -> (HEALTHY | DRAINED)``; only
    HEALTHY nodes are allocatable.  DRAINED is the blacklist state a
    flaky node enters instead of returning to service (an operator
    ``mark_up`` can still return it).
    """

    HEALTHY = "healthy"
    FAILED = "failed"
    REPAIRING = "repairing"
    DRAINED = "drained"


_HEALTH_TRANSITIONS: dict[NodeHealth, frozenset[NodeHealth]] = {
    NodeHealth.HEALTHY: frozenset({NodeHealth.FAILED}),
    # FAILED -> HEALTHY covers the legacy mark_down()/mark_up() pair
    # that skips the explicit repairing phase.
    NodeHealth.FAILED: frozenset({NodeHealth.REPAIRING, NodeHealth.HEALTHY}),
    NodeHealth.REPAIRING: frozenset({NodeHealth.HEALTHY, NodeHealth.DRAINED}),
    NodeHealth.DRAINED: frozenset({NodeHealth.HEALTHY}),
}


@dataclass
class Node:
    """One compute node.

    Parameters
    ----------
    node_id:
        Dense integer identifier (index into the cluster).
    cores:
        Physical cores; each exposes :data:`SMT_LANES` hardware threads.
    memory_mb:
        Installed memory.  Shared occupants split it evenly, which the
        admission check in the manager enforces.
    rack:
        Topology group used by locality-aware node selection.
    """

    node_id: int
    cores: int = 32
    memory_mb: int = 128_000
    rack: int = 0
    #: lane index -> job id, for occupied lanes.  Exclusive occupancy is
    #: recorded as lane 0 with mode EXCLUSIVE.
    _occupants: dict[int, int] = field(default_factory=dict, repr=False)
    mode: NodeMode = NodeMode.IDLE
    #: Hardware health lifecycle state; anything but HEALTHY makes the
    #: node non-allocatable.  Occupants must be evicted before a node
    #: leaves HEALTHY.
    health: NodeHealth = NodeHealth.HEALTHY

    @property
    def down(self) -> bool:
        """True when the node is out of service for any health reason."""
        return self.health is not NodeHealth.HEALTHY

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_idle(self) -> bool:
        """Allocatable: unoccupied and not failed."""
        return self.mode is NodeMode.IDLE and not self.down

    @property
    def occupant_ids(self) -> tuple[int, ...]:
        """Ids of jobs currently on the node (lane order)."""
        return tuple(self._occupants[lane] for lane in sorted(self._occupants))

    @property
    def occupancy(self) -> int:
        """Number of jobs currently on the node."""
        return len(self._occupants)

    @property
    def has_free_lane(self) -> bool:
        """True if a shared co-runner could be placed here."""
        return self.mode is NodeMode.SHARED and len(self._occupants) < SMT_LANES

    def co_runner_of(self, job_id: int) -> int | None:
        """The other occupant sharing the node with *job_id*, if any."""
        occupants = self._occupants.values()
        if job_id not in occupants:
            raise AllocationError(f"job {job_id} is not on node {self.node_id}")
        for occupant in occupants:
            if occupant != job_id:
                return occupant
        return None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _health_transition(self, new_health: NodeHealth) -> None:
        if new_health not in _HEALTH_TRANSITIONS[self.health]:
            raise AllocationError(
                f"node {self.node_id}: illegal health transition "
                f"{self.health.value} -> {new_health.value}"
            )
        self.health = new_health

    def mark_down(self) -> None:
        """Take the node out of service (must be unoccupied).

        This is the failure edge: ``HEALTHY -> FAILED``.
        """
        if self._occupants:
            raise AllocationError(
                f"node {self.node_id} still hosts {self.occupant_ids}; "
                f"evict occupants before marking it down"
            )
        self._health_transition(NodeHealth.FAILED)

    def mark_repairing(self) -> None:
        """Begin repair: ``FAILED -> REPAIRING``."""
        self._health_transition(NodeHealth.REPAIRING)

    def mark_drained(self) -> None:
        """Blacklist a flaky node at repair end: ``REPAIRING -> DRAINED``."""
        self._health_transition(NodeHealth.DRAINED)

    def mark_up(self) -> None:
        """Return a repaired (or drained) node to service."""
        if self.health is not NodeHealth.HEALTHY:
            self._health_transition(NodeHealth.HEALTHY)

    def __str__(self) -> str:
        occ = ",".join(map(str, self.occupant_ids)) or "-"
        return f"node{self.node_id}[{self.mode.value}:{occ}]"
