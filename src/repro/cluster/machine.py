"""The cluster: a collection of nodes plus allocation bookkeeping.

The cluster validates and applies :class:`~repro.cluster.allocation.
Allocation` records and answers the occupancy queries strategies need
(free nodes, joinable shared lanes, a job's node set).  It deliberately
knows nothing about jobs beyond their integer ids.

Occupancy queries run every scheduler pass, every metrics sample and
every job start and end, so the cluster keeps them as indexes updated
by :meth:`Cluster.allocate`, :meth:`Cluster.release` and the health
transitions (``mark_*``) instead of rescanning the nodes.  Allocate
and release each make one walk over the job's nodes, changing node
and indexes together.  Node state must therefore change through the
cluster, never through a member :class:`Node` directly;
:meth:`Cluster.check_indexes` compares the indexes with a full scan.
The indexes are derived state: they are left out of pickles and
rebuilt on restore.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import repeat
from typing import Callable, Iterable, Iterator

from repro.cluster.allocation import Allocation, AllocationKind
from repro.cluster.node import SMT_LANES, Node, NodeMode
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
        "_running_ids", "_idle_ids", "_busy", "_shared", "_co_runners",
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
            # Shared job id -> {co-runner job id: nodes they share}.  A
            # node has no free lane exactly when it hosts a co-runner,
            # so a job is joinable exactly when its map is empty.
            "_co_runners": {
                job_id: self._scan_co_runners(alloc)
                for job_id, alloc in self._allocations.items()
                if alloc.is_shared
            },
            # Smallest installed memory of any node (admission control).
            "min_memory_mb": min((n.memory_mb for n in nodes), default=0),
        }

    def _scan_co_runners(self, allocation: Allocation) -> dict[int, int]:
        """A shared job's co-runner map, keyed in the order a walk of
        its nodes first meets each co-runner."""
        shared: dict[int, int] = {}
        for node_id in allocation.node_ids:
            other = self.nodes[node_id].co_runner_of(allocation.job_id)
            if other is not None:
                shared[other] = shared.get(other, 0) + 1
        return shared

    def _build_indexes(self) -> None:
        self.__dict__.update(self._scan_indexes())

    def check_indexes(self) -> None:
        """Raise :class:`AllocationError` if any maintained index
        differs from a full scan of the nodes and allocations."""
        for name, expected in self._scan_indexes().items():
            actual = getattr(self, name)
            # Compared by repr, which also holds the key order: a job's
            # co-runner set is built in its map's order, and a set's
            # iteration order reaches the pickled Job.corun_job_ids.
            if repr(actual) != repr(expected):
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
            job_id for job_id, shared in self._co_runners.items() if not shared
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

    def jobs_sharing_with(self, job_id: int) -> set[int]:
        """Distinct co-runner job ids across all of a job's nodes.

        The set is filled in the order a walk of the job's nodes first
        meets each co-runner, so its layout matches a set built by that
        walk.
        """
        shared = self._co_runners.get(job_id)
        if shared is None:
            self.allocation_of(job_id)  # raises for an unallocated job
            return set()  # exclusive nodes never host a co-runner
        return {other for other in shared}

    def utilization_cores(self) -> float:
        """Fraction of physical cores currently claimed by any job.

        Exclusive and shared occupancy both claim every core of a node
        (sharing packs two jobs onto the same cores, which is exactly
        the point); an idle second lane of a shared node does not add
        capacity, so a shared node with one occupant counts like an
        exclusive node.
        """
        total = sum(n.cores for n in self.nodes)
        # Occupied, not merely non-idle: a down node hosts no job.
        busy = sum(n.cores for n in self.nodes if n.occupancy)
        return busy / total if total else 0.0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def allocate(self, allocation: Allocation) -> Allocation:
        """Apply *allocation*, enforcing occupancy invariants.

        One walk over the nodes grants each one and updates the indexes
        beside it.  A shared job takes the lowest free lane of each
        node, and the returned record holds those ``lanes``, so callers
        build the request with :meth:`build_shared` /
        :meth:`build_exclusive` instead of hand-rolling lane indices.
        A failure on any node undoes the grants made before it, so a
        failed allocation leaves nodes and indexes untouched.
        """
        job_id = allocation.job_id
        if job_id in self._allocations:
            raise AllocationError(f"job {job_id} is already allocated")
        node_ids = allocation.node_ids
        shared = allocation.is_shared
        lanes: list[int] = []
        # Registered before the walk, so that a failure part-way rolls
        # its grants back through release().
        self._allocations[job_id] = allocation
        insort(self._running_ids, job_id)
        try:
            if shared:
                self._grant_shared(job_id, node_ids, lanes)
            else:
                self._grant_exclusive(job_id, node_ids, lanes)
        except AllocationError:
            self._allocations[job_id] = Allocation(
                job_id=job_id,
                node_ids=node_ids[:len(lanes)],
                kind=allocation.kind,
                lanes=tuple(lanes) if shared else (),
            )
            self.release(job_id)
            raise
        if shared:
            allocation = Allocation(
                job_id=job_id,
                node_ids=node_ids,
                kind=AllocationKind.SHARED,
                lanes=tuple(lanes),
            )
            self._allocations[job_id] = allocation
        return allocation

    def _grant_exclusive(
        self, job_id: int, node_ids: tuple[int, ...], lanes: list[int]
    ) -> None:
        """Take each node whole for *job_id*, appending lane 0 per
        granted node to *lanes*."""
        idle = self._idle_ids
        for node_id in node_ids:
            self.nodes[node_id].allocate_exclusive(job_id)
            lanes.append(0)
            self._busy += 1
            del idle[bisect_left(idle, node_id)]

    def _grant_shared(
        self, job_id: int, node_ids: tuple[int, ...], lanes: list[int]
    ) -> None:
        """Open or join each node for shared *job_id*, appending each
        granted lane to *lanes*.  A node refuses when it is down,
        exclusively allocated, already hosts the job or has both lanes
        taken, checked in that order."""
        nodes = self.nodes
        idle = self._idle_ids
        co_runners = self._co_runners
        mine: dict[int, int] = {}
        co_runners[job_id] = mine
        reorder: list[int] = []
        for node_id in node_ids:
            node = nodes[node_id]
            if node.down:
                raise AllocationError(f"node {node_id} is down")
            occupants = node._occupants
            if node.mode is NodeMode.IDLE:
                occupants[0] = job_id
                node.mode = NodeMode.SHARED
                lanes.append(0)
                self._busy += 1
                del idle[bisect_left(idle, node_id)]
                continue
            if node.mode is NodeMode.EXCLUSIVE:
                raise AllocationError(
                    f"node {node_id} is exclusively allocated; cannot share"
                )
            if job_id in occupants.values():
                raise AllocationError(
                    f"job {job_id} already occupies node {node_id}"
                )
            if len(occupants) >= SMT_LANES:
                raise AllocationError(f"node {node_id} shared lanes are full")
            # Join the resident: its last free lane is now taken.
            resident = next(iter(occupants.values()))
            lane = 0
            while lane in occupants:
                lane += 1
            occupants[lane] = job_id
            lanes.append(lane)
            self._shared += 1
            mine[resident] = mine.get(resident, 0) + 1
            theirs = co_runners[resident]
            count = theirs.get(job_id)
            if count is None:
                if theirs:
                    reorder.append(resident)
                theirs[job_id] = 1
            else:
                theirs[job_id] = count + 1
        # A resident that gained a second co-runner keys its map in
        # node order, which the join order need not follow.
        for resident in reorder:
            co_runners[resident] = self._scan_co_runners(
                self._allocations[resident]
            )

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

    def release(self, job_id: int) -> list[int | None]:
        """Free every node held by *job_id* in one walk over them.

        Returns the job left on each node (None where the node is now
        empty), parallel to the allocation's ``node_ids``.
        """
        allocation = self.allocation_of(job_id)
        nodes = self.nodes
        idle = self._idle_ids
        co_runners = self._co_runners
        # An exclusive job holds lane 0 of each node.
        lanes = allocation.lanes if allocation.is_shared else repeat(0)
        left: list[int | None] = []
        for node_id, lane in zip(allocation.node_ids, lanes):
            node = nodes[node_id]
            occupants = node._occupants
            del occupants[lane]
            if occupants:
                # A shared lane freed beside the remaining resident.
                resident = next(iter(occupants.values()))
                self._shared -= 1
                theirs = co_runners[resident]
                if theirs[job_id] == 1:
                    del theirs[job_id]
                else:
                    theirs[job_id] -= 1
                left.append(resident)
            else:
                # Occupied nodes are healthy, so an emptied one is idle.
                node.mode = NodeMode.IDLE
                self._busy -= 1
                insort(idle, node_id)
                left.append(None)
        if allocation.is_shared:
            del co_runners[job_id]
        del self._allocations[job_id]
        del self._running_ids[bisect_left(self._running_ids, job_id)]
        return left

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
