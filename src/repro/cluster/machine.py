"""The cluster: a collection of nodes plus allocation bookkeeping.

The cluster validates and applies :class:`~repro.cluster.allocation.
Allocation` records and answers the occupancy queries strategies need
(free nodes, joinable shared lanes, a job's node set).  It deliberately
knows nothing about jobs beyond their integer ids.

Occupancy queries run every scheduler pass and every metrics sample,
so the cluster keeps them as indexes updated by :meth:`Cluster.allocate`,
:meth:`Cluster.release` and the health transitions (``mark_*``) instead
of rescanning the nodes.  Node state must therefore change through the
cluster, never through a member :class:`Node` directly;
:meth:`Cluster.check_indexes` compares the indexes with a full scan.
The indexes are derived state: they are left out of pickles and
rebuilt on restore.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Iterable, Iterator

from repro.cluster.allocation import Allocation, AllocationKind
from repro.cluster.node import SMT_LANES, Node
from repro.cluster.topology import Topology
from repro.errors import AllocationError


class Cluster:
    """A fixed set of compute nodes.

    Parameters
    ----------
    nodes:
        The node objects, whose ``node_id`` must equal their index.
    name:
        Cosmetic label used in reports.
    """

    def __init__(self, nodes: Iterable[Node], name: str = "cluster"):
        self.nodes: list[Node] = list(nodes)
        self.name = name
        for index, node in enumerate(self.nodes):
            if node.node_id != index:
                raise AllocationError(
                    f"node at position {index} has node_id={node.node_id}; "
                    f"ids must be dense indices"
                )
        self._allocations: dict[int, Allocation] = {}
        self.topology = Topology.from_nodes(self.nodes)
        self._build_indexes()

    # ------------------------------------------------------------------
    # Occupancy indexes
    # ------------------------------------------------------------------
    #: Attributes derived from ``nodes`` and ``_allocations``; never
    #: pickled, rebuilt by :meth:`_build_indexes`.
    _INDEXES = (
        "_running_ids", "_idle_ids", "_busy", "_shared", "_full_nodes",
        "min_memory_mb",
    )

    def _scan_indexes(self) -> dict[str, object]:
        """Every index, computed from scratch by walking the nodes."""
        nodes = self.nodes
        return {
            # Allocated job ids (reservation phantoms included), sorted.
            "_running_ids": sorted(self._allocations),
            # Allocatable node ids, ascending.
            "_idle_ids": [n.node_id for n in nodes if n.is_idle],
            # Nodes with at least one occupant / with every lane taken.
            "_busy": sum(1 for n in nodes if n.occupancy),
            "_shared": sum(1 for n in nodes if n.occupancy >= SMT_LANES),
            # Shared job id -> how many of its nodes have no free lane;
            # a job is joinable exactly when its count is 0.
            "_full_nodes": {
                job_id: sum(
                    1 for i in alloc.node_ids if not nodes[i].has_free_lane
                )
                for job_id, alloc in self._allocations.items()
                if alloc.is_shared
            },
            # Smallest installed memory of any node (admission control).
            "min_memory_mb": min((n.memory_mb for n in nodes), default=0),
        }

    def _build_indexes(self) -> None:
        self.__dict__.update(self._scan_indexes())

    def check_indexes(self) -> None:
        """Raise :class:`AllocationError` if any maintained index
        differs from a full scan of the nodes and allocations."""
        for name, expected in self._scan_indexes().items():
            actual = getattr(self, name)
            if actual != expected:
                raise AllocationError(
                    f"cluster index {name} is stale: maintained {actual!r}, "
                    f"scan gives {expected!r}"
                )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._INDEXES:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_indexes()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        num_nodes: int,
        cores: int = 32,
        memory_mb: int = 128_000,
        nodes_per_rack: int = 16,
        name: str = "cluster",
    ) -> "Cluster":
        """Build a uniform cluster (the evaluation configuration)."""
        if num_nodes <= 0:
            raise AllocationError(f"cluster needs at least one node, got {num_nodes}")
        nodes = [
            Node(
                node_id=i,
                cores=cores,
                memory_mb=memory_mb,
                rack=i // max(1, nodes_per_rack),
            )
            for i in range(num_nodes)
        ]
        return cls(nodes, name=name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def idle_nodes(self) -> list[Node]:
        """Allocatable nodes (healthy, no occupants), in id order."""
        return [self.nodes[i] for i in self._idle_ids]

    def idle_node_ids(self) -> list[int]:
        """Ids of :meth:`idle_nodes`, ascending (a fresh list)."""
        return self._idle_ids.copy()

    def num_idle(self) -> int:
        return len(self._idle_ids)

    def num_busy(self) -> int:
        """Nodes hosting at least one job."""
        return self._busy

    def num_shared(self) -> int:
        """Nodes hosting a job on every SMT lane."""
        return self._shared

    def joinable_job_ids(self) -> list[int]:
        """Shared jobs with a free SMT lane on every node, ascending."""
        return sorted(
            job_id for job_id, full in self._full_nodes.items() if not full
        )

    def joinable_nodes(self) -> list[Node]:
        """Shared nodes with a free SMT lane, in id order."""
        return [n for n in self.nodes if n.has_free_lane]

    def allocation_of(self, job_id: int) -> Allocation:
        alloc = self._allocations.get(job_id)
        if alloc is None:
            raise AllocationError(f"job {job_id} holds no allocation")
        return alloc

    def has_allocation(self, job_id: int) -> bool:
        return job_id in self._allocations

    def running_job_ids(self) -> list[int]:
        """Allocated job ids, ascending (a fresh list)."""
        return self._running_ids.copy()

    def nodes_of(self, job_id: int) -> list[Node]:
        return [self.nodes[i] for i in self.allocation_of(job_id).node_ids]

    def co_runners_of(self, job_id: int) -> dict[int, int | None]:
        """Map ``node_id -> co-runner job id (or None)`` for a job."""
        return {
            node.node_id: node.co_runner_of(job_id)
            for node in self.nodes_of(job_id)
        }

    def jobs_sharing_with(self, job_id: int) -> set[int]:
        """Distinct co-runner job ids across all of a job's nodes."""
        if not self.allocation_of(job_id).is_shared:
            return set()  # exclusive nodes never host a co-runner
        return {
            other
            for other in self.co_runners_of(job_id).values()
            if other is not None
        }

    def utilization_cores(self) -> float:
        """Fraction of physical cores currently claimed by any job.

        Exclusive and shared occupancy both claim every core of a node
        (sharing packs two jobs onto the same cores, which is exactly
        the point); an idle second lane of a shared node does not add
        capacity, so a shared node with one occupant counts like an
        exclusive node.
        """
        total = sum(n.cores for n in self.nodes)
        busy = sum(n.cores for n in self.nodes if not n.is_idle)
        return busy / total if total else 0.0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def allocate(self, allocation: Allocation) -> Allocation:
        """Apply *allocation*, enforcing occupancy invariants.

        For shared allocations the recorded ``lanes`` are assigned by
        the nodes, so callers build the record with
        :meth:`build_shared` / :meth:`build_exclusive` instead of
        hand-rolling lane indices.
        """
        if allocation.job_id in self._allocations:
            raise AllocationError(f"job {allocation.job_id} is already allocated")
        granted: list[int] = []
        try:
            if allocation.kind is AllocationKind.EXCLUSIVE:
                for node_id in allocation.node_ids:
                    self.nodes[node_id].allocate_exclusive(allocation.job_id)
                    granted.append(node_id)
                final = allocation
            else:
                lanes: list[int] = []
                for node_id in allocation.node_ids:
                    lanes.append(self.nodes[node_id].allocate_shared(allocation.job_id))
                    granted.append(node_id)
                final = Allocation(
                    job_id=allocation.job_id,
                    node_ids=allocation.node_ids,
                    kind=AllocationKind.SHARED,
                    lanes=tuple(lanes),
                )
        except AllocationError:
            # Roll back partial grants so a failed allocation leaves the
            # cluster untouched.
            for node_id in granted:
                self.nodes[node_id].release(allocation.job_id)
            raise
        self._allocations[final.job_id] = final
        self._index_allocate(final)
        return final

    def _index_allocate(self, allocation: Allocation) -> None:
        job_id = allocation.job_id
        insort(self._running_ids, job_id)
        idle = self._idle_ids
        full_nodes = self._full_nodes
        full = 0
        for node_id in allocation.node_ids:
            node = self.nodes[node_id]
            if node.occupancy == 1:
                # The node was idle: exclusive, or opened shared.
                self._busy += 1
                del idle[bisect_left(idle, node_id)]
            else:
                # Joined a resident: the node's last lane is now taken.
                self._shared += 1
                full += 1
                full_nodes[node.co_runner_of(job_id)] += 1
        if allocation.is_shared:
            full_nodes[job_id] = full

    def build_exclusive(self, job_id: int, node_ids: Iterable[int]) -> Allocation:
        return Allocation(
            job_id=job_id, node_ids=tuple(node_ids), kind=AllocationKind.EXCLUSIVE
        )

    def build_shared(self, job_id: int, node_ids: Iterable[int]) -> Allocation:
        ids = tuple(node_ids)
        # Placeholder lanes; Cluster.allocate() records the real ones.
        return Allocation(
            job_id=job_id,
            node_ids=ids,
            kind=AllocationKind.SHARED,
            lanes=tuple(0 for _ in ids),
        )

    def release(self, job_id: int) -> Allocation:
        """Free every node held by *job_id*; returns the old record."""
        allocation = self.allocation_of(job_id)
        idle = self._idle_ids
        full_nodes = self._full_nodes
        for node_id in allocation.node_ids:
            remaining = self.nodes[node_id].release(job_id)
            if remaining is None:
                # Occupied nodes are healthy, so an emptied one is idle.
                self._busy -= 1
                insort(idle, node_id)
            else:
                # A shared lane freed beside the remaining resident.
                self._shared -= 1
                full_nodes[remaining] -= 1
        del self._allocations[job_id]
        full_nodes.pop(job_id, None)
        del self._running_ids[bisect_left(self._running_ids, job_id)]
        return allocation

    # ------------------------------------------------------------------
    # Health transitions (see NodeHealth for the lifecycle)
    # ------------------------------------------------------------------
    def mark_down(self, node_id: int) -> None:
        """Take an unoccupied node out of service (``HEALTHY -> FAILED``)."""
        self._change_health(node_id, Node.mark_down)

    def mark_repairing(self, node_id: int) -> None:
        self._change_health(node_id, Node.mark_repairing)

    def mark_drained(self, node_id: int) -> None:
        self._change_health(node_id, Node.mark_drained)

    def mark_up(self, node_id: int) -> None:
        """Return a node to service."""
        self._change_health(node_id, Node.mark_up)

    def _change_health(
        self, node_id: int, transition: Callable[[Node], None]
    ) -> None:
        node = self.nodes[node_id]
        was_idle = node.is_idle
        transition(node)
        if node.is_idle and not was_idle:
            insort(self._idle_ids, node_id)
        elif was_idle and not node.is_idle:
            del self._idle_ids[bisect_left(self._idle_ids, node_id)]

    def reset(self) -> None:
        """Release everything (used between simulation runs)."""
        for job_id in list(self._allocations):
            self.release(job_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster({self.name!r}, nodes={self.num_nodes}, "
            f"idle={self.num_idle()}, jobs={len(self._allocations)})"
        )
