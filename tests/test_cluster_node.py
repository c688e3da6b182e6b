"""Unit tests for single-node occupancy semantics.

The cluster grants and frees nodes (:meth:`Cluster.allocate` and
:meth:`Cluster.release`), so the grant and release cases drive a
one-node cluster and read the node it changed.
"""

import pytest

from repro.cluster.machine import Cluster
from repro.cluster.node import SMT_LANES, NodeMode
from repro.errors import AllocationError


@pytest.fixture
def cluster() -> Cluster:
    return Cluster.homogeneous(1, cores=16)


def share(cluster: Cluster, job_id: int) -> int:
    """Place *job_id* shared on node 0; returns the lane it took."""
    (lane,) = cluster.allocate(cluster.build_shared(job_id, [0])).lanes
    return lane


def exclusive(cluster: Cluster, job_id: int) -> None:
    cluster.allocate(cluster.build_exclusive(job_id, [0]))


class TestExclusive:
    def test_allocate_exclusive(self, cluster):
        exclusive(cluster, 7)
        node = cluster.node(0)
        assert node.mode is NodeMode.EXCLUSIVE
        assert node.occupant_ids == (7,)

    def test_exclusive_rejects_second_exclusive(self, cluster):
        exclusive(cluster, 1)
        with pytest.raises(AllocationError, match="requires an idle node"):
            exclusive(cluster, 2)

    def test_exclusive_rejects_shared_join(self, cluster):
        exclusive(cluster, 1)
        with pytest.raises(AllocationError, match="cannot share"):
            share(cluster, 2)

    def test_exclusive_has_no_free_lane(self, cluster):
        exclusive(cluster, 1)
        assert not cluster.node(0).has_free_lane


class TestShared:
    def test_open_shared_on_idle(self, cluster):
        lane = share(cluster, 1)
        node = cluster.node(0)
        assert lane == 0
        assert node.mode is NodeMode.SHARED
        assert node.has_free_lane

    def test_second_occupant_gets_other_lane(self, cluster):
        share(cluster, 1)
        lane = share(cluster, 2)
        node = cluster.node(0)
        assert lane == 1
        assert node.occupant_ids == (1, 2)
        assert not node.has_free_lane

    def test_full_shared_rejects_third(self, cluster):
        share(cluster, 1)
        share(cluster, 2)
        with pytest.raises(AllocationError, match="full"):
            share(cluster, 3)

    def test_same_job_cannot_take_both_lanes(self, cluster):
        share(cluster, 1)
        with pytest.raises(AllocationError, match="is already allocated"):
            share(cluster, 1)
        # A node refuses a job it already hosts too (the rollback cases
        # of test_cluster_indexes.py reach that check); either way the
        # node keeps job 1 on one lane.
        assert cluster.node(0).occupant_ids == (1,)

    def test_co_runner_of(self, cluster):
        share(cluster, 1)
        node = cluster.node(0)
        assert node.co_runner_of(1) is None
        share(cluster, 2)
        assert node.co_runner_of(1) == 2
        assert node.co_runner_of(2) == 1

    def test_co_runner_of_absent_job_raises(self, cluster):
        share(cluster, 1)
        with pytest.raises(AllocationError, match="not on node"):
            cluster.node(0).co_runner_of(99)

    def test_free_lane_index_after_release(self, cluster):
        share(cluster, 1)
        share(cluster, 2)
        cluster.release(1)
        assert share(cluster, 3) == 0  # lane 0 reopened
        assert cluster.node(0).occupant_ids == (3, 2)

    def test_no_free_lane_when_idle(self, cluster):
        # Only a shared node offers a lane to join.
        assert not cluster.node(0).has_free_lane
        assert cluster.joinable_nodes() == []

    def test_smt_lanes_constant_is_two(self):
        # The paper's mechanism is specifically 2-way hyper-threading.
        assert SMT_LANES == 2


class TestRelease:
    def test_release_returns_to_idle(self, cluster):
        exclusive(cluster, 1)
        assert cluster.release(1) == {}
        node = cluster.node(0)
        assert node.is_idle
        assert node.mode is NodeMode.IDLE

    def test_release_one_of_two_keeps_shared(self, cluster):
        share(cluster, 1)
        share(cluster, 2)
        assert cluster.release(1) == {2: (0,)}
        node = cluster.node(0)
        assert node.mode is NodeMode.SHARED
        assert node.occupant_ids == (2,)
        assert node.has_free_lane

    def test_release_last_shared_clears_mode(self, cluster):
        share(cluster, 1)
        cluster.release(1)
        assert cluster.node(0).mode is NodeMode.IDLE

    def test_release_absent_job_raises(self, cluster):
        with pytest.raises(AllocationError, match="holds no allocation"):
            cluster.release(5)

    def test_mode_is_not_sticky(self, cluster):
        share(cluster, 1)
        cluster.release(1)
        exclusive(cluster, 2)  # idle node accepts exclusive again
        assert cluster.node(0).mode is NodeMode.EXCLUSIVE
