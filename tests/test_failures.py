"""Tests for node failures and job requeueing."""

import numpy as np
import pytest

from repro.cluster.machine import Cluster
from repro.cluster.node import Node
from repro.errors import AllocationError, ConfigError
from repro.metrics.validation import ValidatingCollector
from repro.slurm.config import SchedulerConfig
from repro.slurm.failures import FailureModel
from repro.slurm.job import JobState
from repro.slurm.manager import WorkloadManager
from repro.workload.trace import WorkloadTrace
from repro.workload.trinity import TrinityWorkloadGenerator
from tests.conftest import make_job, make_spec


class TestNodeDownState:
    def test_down_node_not_idle(self):
        node = Node(node_id=0)
        node.mark_down()
        assert not node.is_idle
        node.mark_up()
        assert node.is_idle

    def test_down_node_rejects_allocation(self):
        cluster = Cluster.homogeneous(1)
        cluster.mark_down(0)
        for build in (cluster.build_exclusive, cluster.build_shared):
            with pytest.raises(AllocationError, match="down"):
                cluster.allocate(build(1, [0]))

    def test_cannot_down_occupied_node(self):
        cluster = Cluster.homogeneous(1)
        cluster.allocate(cluster.build_exclusive(1, [0]))
        with pytest.raises(AllocationError, match="evict"):
            cluster.node(0).mark_down()

    def test_cluster_idle_excludes_down(self):
        cluster = Cluster.homogeneous(4)
        cluster.mark_down(0)
        assert cluster.num_idle() == 3
        cluster.check_indexes()

    def test_cluster_health_round_trip_keeps_idle_index(self):
        cluster = Cluster.homogeneous(4)
        cluster.mark_down(2)
        cluster.mark_repairing(2)
        assert [n.node_id for n in cluster.idle_nodes()] == [0, 1, 3]
        cluster.mark_drained(2)
        cluster.mark_up(2)
        assert cluster.idle_node_ids() == [0, 1, 2, 3]
        cluster.check_indexes()

    def test_health_change_behind_the_cluster_is_detected(self):
        cluster = Cluster.homogeneous(4)
        cluster.node(0).mark_down()
        with pytest.raises(AllocationError, match="_idle_ids is stale"):
            cluster.check_indexes()


class TestFailureModel:
    def test_rates(self):
        model = FailureModel(mtbf_node_hours=100.0, repair_hours=2.0)
        assert model.cluster_interarrival_seconds(100) == pytest.approx(3600.0)
        assert model.repair_seconds == 7200.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            FailureModel(mtbf_node_hours=0.0)
        with pytest.raises(ConfigError):
            FailureModel(repair_hours=-1.0)
        with pytest.raises(ConfigError):
            FailureModel().cluster_interarrival_seconds(0)


class TestJobRequeue:
    def test_requeue_resets_progress(self):
        from repro.cluster.allocation import Allocation, AllocationKind

        job = make_job(runtime=100.0)
        job.mark_started(
            0.0, Allocation(job_id=1, node_ids=(0,), kind=AllocationKind.EXCLUSIVE)
        )
        job.rate = 1.0
        job.integrate_progress(40.0, shared_now=False)
        job.mark_requeued(40.0)
        assert job.state is JobState.PENDING
        assert job.remaining_work == pytest.approx(100.0)
        assert job.lost_work == pytest.approx(40.0)
        assert job.requeues == 1
        assert job.start_time is None and job.allocation is None

    def test_requeue_requires_running(self):
        with pytest.raises(Exception):
            make_job().mark_requeued(0.0)


def run_with_failures(strategy="shared_backfill", mtbf=200.0, seed=5,
                      num_jobs=50, nodes=16):
    rng = np.random.default_rng(3)
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.9, offered_load=1.5
    ).generate(num_jobs, nodes, rng)
    cluster = Cluster.homogeneous(nodes)
    manager = WorkloadManager(
        cluster,
        config=SchedulerConfig(strategy=strategy),
        collector=ValidatingCollector(cluster),
    )
    manager.load(trace)
    manager.enable_failures(
        FailureModel(mtbf_node_hours=mtbf, repair_hours=2.0), seed=seed
    )
    return manager, manager.run()


class TestFailureInjection:
    def test_all_jobs_eventually_complete(self):
        manager, result = run_with_failures()
        assert result.completed_jobs == len(result.accounting)
        assert manager.failures_injected > 0

    def test_invariants_hold_throughout(self):
        # ValidatingCollector raises on any violation; reaching here
        # means every sampled state was consistent.
        manager, _ = run_with_failures()
        assert manager.collector.checks > 50

    def test_lost_work_recorded(self):
        manager, result = run_with_failures(mtbf=100.0)
        if manager.jobs_requeued:
            assert any(r.lost_work > 0 for r in result.accounting)
            assert any(r.requeues > 0 for r in result.accounting)

    def test_deterministic_failures(self):
        _, a = run_with_failures(seed=9)
        _, b = run_with_failures(seed=9)
        for ra, rb in zip(a.accounting, b.accounting):
            assert ra.end_time == rb.end_time

    def test_double_enable_rejected(self):
        trace = WorkloadTrace([make_spec(job_id=1)])
        cluster = Cluster.homogeneous(2)
        manager = WorkloadManager(cluster)
        manager.load(trace)
        manager.enable_failures(FailureModel())
        with pytest.raises(ConfigError, match="already enabled"):
            manager.enable_failures(FailureModel())

    def test_no_failures_with_huge_mtbf(self):
        manager, result = run_with_failures(mtbf=1e9)
        assert manager.failures_injected == 0
        assert result.completed_jobs == len(result.accounting)
