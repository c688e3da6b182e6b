"""Unit tests for the cluster container."""

import pytest

from repro.cluster.allocation import Allocation, AllocationKind
from repro.cluster.machine import Cluster
from repro.cluster.node import Node
from repro.errors import AllocationError


class TestConstruction:
    def test_homogeneous_builder(self):
        cluster = Cluster.homogeneous(12, cores=8, nodes_per_rack=4)
        assert cluster.num_nodes == 12
        assert all(n.cores == 8 for n in cluster)
        assert cluster.topology.num_racks == 3

    def test_zero_nodes_rejected(self):
        with pytest.raises(AllocationError, match="at least one node"):
            Cluster.homogeneous(0)

    def test_non_dense_ids_rejected(self):
        nodes = [Node(node_id=5)]
        with pytest.raises(AllocationError, match="dense"):
            Cluster(nodes)


class TestAllocate:
    def test_exclusive_roundtrip(self, cluster):
        alloc = cluster.allocate(cluster.build_exclusive(1, [0, 1, 2]))
        assert alloc.kind is AllocationKind.EXCLUSIVE
        assert cluster.num_idle() == 5
        assert cluster.allocation_of(1) is alloc
        cluster.release(1)
        assert cluster.num_idle() == 8

    def test_shared_records_lanes(self, cluster):
        alloc = cluster.allocate(cluster.build_shared(1, [0, 1]))
        assert alloc.lanes == (0, 0)
        second = cluster.allocate(cluster.build_shared(2, [0, 1]))
        assert second.lanes == (1, 1)

    def test_double_allocation_rejected(self, cluster):
        cluster.allocate(cluster.build_exclusive(1, [0]))
        with pytest.raises(AllocationError, match="already allocated"):
            cluster.allocate(cluster.build_exclusive(1, [1]))

    def test_failed_allocation_rolls_back(self, cluster):
        cluster.allocate(cluster.build_exclusive(1, [2]))
        with pytest.raises(AllocationError):
            cluster.allocate(cluster.build_exclusive(2, [0, 1, 2]))
        # Nodes 0 and 1 must have been returned.
        assert cluster.node(0).is_idle
        assert cluster.node(1).is_idle

    def test_release_unknown_job_raises(self, cluster):
        with pytest.raises(AllocationError, match="holds no allocation"):
            cluster.release(9)

    def test_reset_releases_everything(self, cluster):
        cluster.allocate(cluster.build_exclusive(1, [0]))
        cluster.allocate(cluster.build_shared(2, [1, 2]))
        cluster.reset()
        assert cluster.num_idle() == 8
        assert cluster.running_job_ids() == []


class TestQueries:
    def test_idle_and_joinable(self, cluster):
        cluster.allocate(cluster.build_exclusive(1, [0]))
        cluster.allocate(cluster.build_shared(2, [1, 2]))
        assert [n.node_id for n in cluster.idle_nodes()] == [3, 4, 5, 6, 7]
        assert [n.node_id for n in cluster.joinable_nodes()] == [1, 2]

    def test_co_runners_of(self, cluster):
        cluster.allocate(cluster.build_shared(1, [0, 1]))
        cluster.allocate(cluster.build_shared(2, [0, 1]))
        # Each job shares both nodes with the other.
        assert cluster._co_runners == {1: {2: 2}, 2: {1: 2}}
        assert cluster.jobs_sharing_with(1) == {2}
        assert cluster.jobs_sharing_with(2) == {1}

    def test_co_runners_none_when_alone(self, cluster):
        cluster.allocate(cluster.build_shared(1, [0, 1]))
        cluster.allocate(cluster.build_exclusive(3, [2]))
        assert cluster._co_runners == {1: {}}
        assert cluster.jobs_sharing_with(1) == set()
        assert cluster.jobs_sharing_with(3) == set()
        with pytest.raises(AllocationError):
            cluster.jobs_sharing_with(9)

    def test_utilization_counts_physical_occupancy(self, cluster):
        assert cluster.utilization_cores() == 0.0
        cluster.allocate(cluster.build_exclusive(1, [0, 1]))
        assert cluster.utilization_cores() == pytest.approx(2 / 8)
        # A second occupant of the same nodes adds no physical cores.
        cluster.release(1)
        cluster.allocate(cluster.build_shared(2, [0, 1]))
        cluster.allocate(cluster.build_shared(3, [0, 1]))
        assert cluster.utilization_cores() == pytest.approx(2 / 8)

    def test_utilization_ignores_down_nodes(self):
        # A failed, repairing or drained node hosts no job, so it
        # claims no cores.
        cluster = Cluster.homogeneous(4, cores=2)
        cluster.mark_down(3)
        assert cluster.utilization_cores() == 0.0
        cluster.mark_repairing(3)
        cluster.mark_drained(3)
        cluster.allocate(cluster.build_exclusive(1, [0]))
        assert cluster.utilization_cores() == pytest.approx(1 / 4)

    def test_running_job_ids_sorted(self, cluster):
        cluster.allocate(cluster.build_exclusive(5, [0]))
        cluster.allocate(cluster.build_exclusive(2, [1]))
        assert cluster.running_job_ids() == [2, 5]


class TestAllocationRecord:
    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Allocation(job_id=1, node_ids=(0, 0), kind=AllocationKind.EXCLUSIVE)

    def test_exclusive_with_lanes_rejected(self):
        with pytest.raises(ValueError, match="no lane"):
            Allocation(
                job_id=1, node_ids=(0,), kind=AllocationKind.EXCLUSIVE, lanes=(0,)
            )

    def test_shared_lane_count_must_match(self):
        with pytest.raises(ValueError, match="one lane per node"):
            Allocation(
                job_id=1, node_ids=(0, 1), kind=AllocationKind.SHARED, lanes=(0,)
            )

    def test_num_nodes_and_is_shared(self):
        alloc = Allocation(
            job_id=1, node_ids=(0, 1), kind=AllocationKind.SHARED, lanes=(0, 0)
        )
        assert alloc.num_nodes == 2
        assert alloc.is_shared
