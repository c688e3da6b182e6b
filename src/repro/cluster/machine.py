"""The cluster: a collection of nodes plus allocation bookkeeping.

The cluster validates and applies :class:`~repro.cluster.allocation.
Allocation` records and answers the occupancy queries strategies need
(free nodes, joinable shared lanes, a job's node set).  It deliberately
knows nothing about jobs beyond their integer ids.

Occupancy queries run every scheduler pass, every metrics sample and
every job start and end, so the cluster keeps them as indexes updated
by :meth:`Cluster.allocate`, :meth:`Cluster.release` and the health
transitions (``mark_*``) instead of rescanning the nodes.  Allocate
and release do per-node work only on each node's lane and mode: a
request is checked in full before anything changes (a joinable
resident's whole group in one step), and the busy and shared counts,
the sorted idle list and the co-runner maps then change once per job
or once per resident.  Node state must therefore change through the
cluster, never through a member :class:`Node` directly;
:meth:`Cluster.check_indexes` compares the indexes with a full scan.
The indexes are derived state: they are left out of pickles and
rebuilt on restore.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from itertools import repeat
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from repro.cluster.allocation import Allocation, AllocationKind
from repro.cluster.node import SMT_LANES, Node, NodeHealth, NodeMode
from repro.cluster.topology import Topology
from repro.errors import AllocationError

#: The free lane of a two-lane node whose one occupant holds lane i.
_OTHER_LANE = (1, 0)
_mode_of = attrgetter("mode")
_health_of = attrgetter("health")


def _all_idle(nodes: list[Node]) -> bool:
    """Whether every node is healthy and unoccupied, tested in C by
    counting their modes and health states."""
    count = len(nodes)
    return (
        list(map(_mode_of, nodes)).count(NodeMode.IDLE) == count
        and list(map(_health_of, nodes)).count(NodeHealth.HEALTHY) == count
    )


def _refuse_exclusive(nodes: list[Node]) -> None:
    """Raise for the first node that cannot be taken whole: one that is
    down or occupied, checked in that order."""
    for node in nodes:
        if node.health is not NodeHealth.HEALTHY:
            raise AllocationError(f"node {node.node_id} is down")
        if node.mode is not NodeMode.IDLE:
            raise AllocationError(
                f"node {node.node_id} is {node.mode.value}; "
                f"exclusive allocation requires an idle node"
            )


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
        "min_memory_mb", "_uniform_memory",
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
            # Whether every node has the same memory, so that any set of
            # nodes has min_memory_mb as its smallest.
            "_uniform_memory": len({n.memory_mb for n in nodes}) <= 1,
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
        # setattr interns the names as pickle's default restore does,
        # and the label is interned as a literal name is, so a restored
        # cluster pickles to the same bytes.
        for name, value in state.items():
            setattr(self, name, value)
        self.name = sys.intern(self.name)
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

    def is_joinable(self, job_id: int) -> bool:
        """Whether allocated *job_id* is shared with a free SMT lane on
        every node (it has no co-runner)."""
        shared = self._co_runners.get(job_id)
        return shared is not None and not shared

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

    def min_memory_of(self, node_ids: Iterable[int]) -> int:
        """Smallest installed memory among *node_ids*: the
        ``min_memory_mb`` index, with no walk, when all nodes have the
        same memory."""
        if self._uniform_memory:
            return self.min_memory_mb
        nodes = self.nodes
        return min(nodes[node_id].memory_mb for node_id in node_ids)

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

        Every node is checked first, in node order, so a refused
        request raises before anything changes and leaves nodes and
        indexes untouched.  The grant then sets each node's lane and
        mode, and updates each index once for the whole job.  A shared
        job takes the free lane of each node, and the returned record
        holds those ``lanes``, so callers build the request with
        :meth:`build_shared` / :meth:`build_exclusive` instead of
        hand-rolling lane indices.
        """
        job_id = allocation.job_id
        if job_id in self._allocations:
            raise AllocationError(f"job {job_id} is already allocated")
        node_ids = allocation.node_ids
        granted = list(map(self.nodes.__getitem__, node_ids))
        if allocation.is_shared:
            allocation = self._grant_shared(job_id, node_ids, granted)
        else:
            if not _all_idle(granted):
                _refuse_exclusive(granted)
            exclusive = NodeMode.EXCLUSIVE
            for node in granted:
                node._occupants[0] = job_id
                node.mode = exclusive
            self._busy += len(node_ids)
            self._cut_idle(node_ids)
        self._allocations[job_id] = allocation
        insort(self._running_ids, job_id)
        return allocation

    def _grant_shared(
        self, job_id: int, node_ids: tuple[int, ...], granted: list[Node]
    ) -> Allocation:
        """Open or join *granted*, the nodes *node_ids*, for shared
        *job_id*; returns the allocation record with the lanes taken."""
        if _all_idle(granted):
            lanes: tuple[int, ...] = (0,) * len(node_ids)
            opened: tuple[int, ...] | list[int] = node_ids
            mine: dict[int, int] = {}
        else:
            lanes, opened, mine = self._check_shared(job_id, node_ids, granted)
        shared = NodeMode.SHARED
        for node, lane in zip(granted, lanes):
            node._occupants[lane] = job_id
            node.mode = shared
        self._busy += len(opened)
        self._shared += len(node_ids) - len(opened)
        self._cut_idle(opened)
        # Each resident gains the joiner once, for all the nodes they
        # now share.  A resident's map meets its co-runners in node
        # order: the joiner goes last unless the resident already had
        # a co-runner, which may sit on a later node.
        co_runners = self._co_runners
        for resident, count in mine.items():
            theirs = co_runners[resident]
            theirs[job_id] = count
            if len(theirs) > 1:
                co_runners[resident] = self._scan_co_runners(
                    self._allocations[resident]
                )
        co_runners[job_id] = mine
        return Allocation(
            job_id=job_id,
            node_ids=node_ids,
            kind=AllocationKind.SHARED,
            lanes=tuple(lanes),
        )

    def _check_shared(
        self, job_id: int, node_ids: tuple[int, ...], granted: list[Node]
    ) -> tuple[list[int], list[int], dict[int, int]]:
        """Check a shared request in node order, raising for the first
        node that refuses: one that is down, exclusively allocated,
        already hosts the job or has both lanes taken, checked in that
        order.  Returns the lane to take on each node, the idle nodes
        to open, and each joined resident's count of shared nodes, in
        the order the nodes first meet it.

        A joinable resident (one with no co-runner, so alone on one
        lane of every node it holds) whose whole node list appears in
        the request is checked and joined in one step."""
        allocations = self._allocations
        co_runners = self._co_runners
        healthy, idle = NodeHealth.HEALTHY, NodeMode.IDLE
        lanes: list[int] = []
        opened: list[int] = []
        mine: dict[int, int] = {}
        index, count = 0, len(node_ids)
        while index < count:
            node = granted[index]
            node_id = node_ids[index]
            if node.health is not healthy:
                raise AllocationError(f"node {node_id} is down")
            mode = node.mode
            if mode is idle:
                lanes.append(0)
                opened.append(node_id)
                index += 1
                continue
            if mode is NodeMode.EXCLUSIVE:
                raise AllocationError(
                    f"node {node_id} is exclusively allocated; cannot share"
                )
            occupants = node._occupants
            if len(occupants) >= SMT_LANES:
                if job_id in occupants.values():
                    raise AllocationError(
                        f"job {job_id} already occupies node {node_id}"
                    )
                raise AllocationError(f"node {node_id} shared lanes are full")
            # A shared node always has an occupant; with two lanes, one
            # occupant leaves exactly the other lane free.
            ((lane, resident),) = occupants.items()
            if resident == job_id:
                raise AllocationError(
                    f"job {job_id} already occupies node {node_id}"
                )
            group = allocations[resident]
            size = len(group.node_ids)
            if not co_runners[resident] and (
                node_ids[index:index + size] == group.node_ids
            ):
                lanes.extend(map(_OTHER_LANE.__getitem__, group.lanes))
                mine[resident] = mine.get(resident, 0) + size
                index += size
                continue
            lanes.append(_OTHER_LANE[lane])
            mine[resident] = mine.get(resident, 0) + 1
            index += 1
        return lanes, opened, mine

    def _cut_idle(self, node_ids: list[int] | tuple[int, ...]) -> None:
        """Remove *node_ids*, all idle, from the sorted idle index in
        one step: a slice when they are the run of idle ids starting at
        their first (first-fit placements take such runs), else a
        rebuild."""
        if not node_ids:
            return
        idle = self._idle_ids
        start = bisect_left(idle, node_ids[0])
        stop = start + len(node_ids)
        if idle[start:stop] == list(node_ids):
            del idle[start:stop]
        else:
            idle[:] = sorted(set(idle).difference(node_ids))

    def _merge_idle(self, node_ids: list[int] | tuple[int, ...]) -> None:
        """Add freed *node_ids* to the sorted idle index in one step."""
        idle = self._idle_ids
        idle.extend(node_ids)
        idle.sort()

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
            lanes=(0,) * len(ids),
        )

    def shared_node_ids(self, job_id: int, other_id: int) -> tuple[int, ...]:
        """The nodes co-runners *job_id* and *other_id* share: one
        job's whole node list when it lies under the other's."""
        count = self._co_runners[job_id][other_id]
        mine = self._allocations[job_id].node_ids
        if count == len(mine):
            return mine
        theirs = self._allocations[other_id].node_ids
        if count == len(theirs):
            return theirs
        common = set(theirs)
        return tuple(node_id for node_id in mine if node_id in common)

    def release(self, job_id: int) -> dict[int, tuple[int, ...]]:
        """Free every node held by *job_id*.

        Each node loses the job's lane, and a node left empty becomes
        idle; the indexes change once for the whole job, and each
        co-runner's map once.  Returns each co-runner the job leaves
        behind, mapped to the nodes they shared, where the co-runner is
        now alone.
        """
        allocation = self.allocation_of(job_id)
        node_ids = allocation.node_ids
        co_runners = self._co_runners
        if allocation.is_shared:
            mine = co_runners[job_id]
            lanes: Iterable[int] = allocation.lanes
        else:
            # An exclusive job holds lane 0 of each node, alone.
            mine = {}
            lanes = repeat(0)
        left = {
            other_id: self.shared_node_ids(job_id, other_id)
            for other_id in mine
        }
        shared = sum(mine.values())
        granted = map(self.nodes.__getitem__, node_ids)
        idle = NodeMode.IDLE
        # Occupied nodes are healthy, so an emptied one is idle.
        if not shared:
            for node, lane in zip(granted, lanes):
                del node._occupants[lane]
                node.mode = idle
            self._merge_idle(node_ids)
        elif shared == len(node_ids):
            # A co-runner stays on every node.
            for node, lane in zip(granted, lanes):
                del node._occupants[lane]
        else:
            freed: list[int] = []
            for node_id, node, lane in zip(node_ids, granted, lanes):
                occupants = node._occupants
                del occupants[lane]
                if not occupants:
                    node.mode = idle
                    freed.append(node_id)
            self._merge_idle(freed)
        for other_id in mine:
            del co_runners[other_id][job_id]
        if allocation.is_shared:
            del co_runners[job_id]
        self._shared -= shared
        self._busy -= len(node_ids) - shared
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
