"""Tests for the resilience subsystem: checkpoint/restart maths,
config validation, node health lifecycle, blacklisting, correlated
rack failures, bounded requeueing and terminal-state conservation."""

import math

import numpy as np
import pytest

from repro.cluster.allocation import Allocation, AllocationKind
from repro.cluster.machine import Cluster
from repro.cluster.node import Node, NodeHealth
from repro.errors import AllocationError, ConfigError
from repro.metrics.validation import ValidatingCollector
from repro.resilience import (
    NodeHealthTracker,
    ResilienceConfig,
    checkpoint_interval_for,
    checkpoint_slowdown,
    daly_interval,
    eligible_rack_nodes,
    eligible_racks,
    saved_progress,
    young_interval,
)
from repro.slurm.config import SchedulerConfig
from repro.slurm.failures import FailureModel
from repro.slurm.job import JobState
from repro.slurm.manager import WorkloadManager
from repro.workload.trinity import TrinityWorkloadGenerator
from tests.conftest import make_job


class TestCheckpointMath:
    def test_young_interval(self):
        assert young_interval(60.0, 7200.0) == pytest.approx(
            math.sqrt(2.0 * 60.0 * 7200.0)
        )

    def test_young_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            young_interval(0.0, 100.0)
        with pytest.raises(ConfigError):
            young_interval(60.0, -1.0)

    def test_daly_close_to_young_for_small_overhead(self):
        # With C << M Daly's correction terms vanish.
        y = young_interval(1.0, 1e6)
        d = daly_interval(1.0, 1e6)
        assert d == pytest.approx(y, rel=1e-2)

    def test_daly_fallback_when_mtbf_tiny(self):
        # M <= C/2 invalidates the expansion: fall back to the MTBF.
        assert daly_interval(100.0, 40.0) == 40.0

    def test_daly_never_below_overhead(self):
        assert daly_interval(100.0, 60.0) >= 100.0

    def test_slowdown(self):
        assert checkpoint_slowdown(None, 60.0) == 1.0
        assert checkpoint_slowdown(3600.0, 0.0) == 1.0
        assert checkpoint_slowdown(3600.0, 60.0) == pytest.approx(
            3600.0 / 3660.0
        )

    def test_saved_progress_floors_to_last_checkpoint(self):
        assert saved_progress(950.0, 300.0) == 900.0
        assert saved_progress(299.0, 300.0) == 0.0
        assert saved_progress(600.0, 300.0) == 600.0
        assert saved_progress(100.0, None) == 0.0
        assert saved_progress(-5.0, 300.0) == 0.0

    def test_interval_for_policies(self):
        none = ResilienceConfig(checkpoint="none")
        assert checkpoint_interval_for(none, 4) is None

        periodic = ResilienceConfig(
            checkpoint="periodic", checkpoint_interval_s=1800.0
        )
        assert checkpoint_interval_for(periodic, 4) == 1800.0

        # Daly without a node failure process has no MTBF to optimise
        # against: uses the periodic interval.
        daly_no_mtbf = ResilienceConfig(
            checkpoint="daly", checkpoint_interval_s=1234.0
        )
        assert checkpoint_interval_for(daly_no_mtbf, 4) == 1234.0

        daly = ResilienceConfig(
            checkpoint="daly",
            node_mtbf_hours=100.0,
            checkpoint_overhead_s=60.0,
        )
        tau1 = checkpoint_interval_for(daly, 1)
        tau8 = checkpoint_interval_for(daly, 8)
        assert tau1 == pytest.approx(daly_interval(60.0, 100.0 * 3600.0))
        # Wider jobs fail more often, so they checkpoint more often.
        assert tau8 < tau1

    def test_interval_for_free_checkpoints_capped(self):
        free = ResilienceConfig(
            checkpoint="daly",
            node_mtbf_hours=100.0,
            checkpoint_overhead_s=0.0,
        )
        assert checkpoint_interval_for(free, 4) == 60.0


class TestResilienceConfig:
    def test_defaults_inert(self):
        config = ResilienceConfig()
        assert not config.any_failures
        assert config.checkpoint == "none"

    def test_validation(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(node_mtbf_hours=0.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(rack_mtbf_hours=-1.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(repair_hours=-0.1)
        with pytest.raises(ConfigError):
            ResilienceConfig(checkpoint="hourly")
        with pytest.raises(ConfigError):
            ResilienceConfig(checkpoint_interval_s=0.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(max_requeues=-1)
        with pytest.raises(ConfigError):
            ResilienceConfig(blacklist_failures=0)
        with pytest.raises(ConfigError):
            ResilienceConfig(blacklist_window_hours=0.0)

    def test_interarrival_rates(self):
        config = ResilienceConfig(node_mtbf_hours=100.0, rack_mtbf_hours=50.0)
        assert config.node_interarrival_seconds(100) == pytest.approx(3600.0)
        assert config.rack_interarrival_seconds(2) == pytest.approx(
            50.0 * 3600.0 / 2
        )
        with pytest.raises(ConfigError):
            ResilienceConfig().node_interarrival_seconds(4)
        with pytest.raises(ConfigError):
            ResilienceConfig().rack_interarrival_seconds(4)

    def test_round_trip(self):
        config = ResilienceConfig(
            node_mtbf_hours=123.0,
            rack_mtbf_hours=456.0,
            checkpoint="daly",
            max_requeues=2,
            blacklist_failures=3,
            seed=7,
        )
        assert ResilienceConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown resilience"):
            ResilienceConfig.from_dict({"mtbf": 100.0})

    def test_scheduler_config_coerces_dict(self):
        config = SchedulerConfig(
            strategy="baseline",
            resilience={"node_mtbf_hours": 100.0, "checkpoint": "daly"},
        )
        assert isinstance(config.resilience, ResilienceConfig)
        assert config.resilience.node_mtbf_hours == 100.0


class TestNodeHealthLifecycle:
    def test_full_cycle_back_to_service(self):
        node = Node(node_id=0)
        node.mark_down()
        assert node.health is NodeHealth.FAILED
        node.mark_repairing()
        assert node.health is NodeHealth.REPAIRING
        assert node.down
        node.mark_up()
        assert node.health is NodeHealth.HEALTHY
        assert node.is_idle

    def test_drain_path(self):
        node = Node(node_id=0)
        node.mark_down()
        node.mark_repairing()
        node.mark_drained()
        assert node.health is NodeHealth.DRAINED
        assert node.down

    def test_illegal_transitions(self):
        with pytest.raises(AllocationError, match="illegal health"):
            Node(node_id=0).mark_drained()
        node = Node(node_id=1)
        node.mark_down()
        with pytest.raises(AllocationError, match="illegal health"):
            node.mark_down()

    def test_drained_node_rejects_allocation(self):
        cluster = Cluster.homogeneous(1)
        cluster.mark_down(0)
        cluster.mark_repairing(0)
        cluster.mark_drained(0)
        with pytest.raises(AllocationError, match="down"):
            cluster.allocate(cluster.build_exclusive(1, [0]))


class TestNodeHealthTracker:
    def test_window_counting(self):
        tracker = NodeHealthTracker(blacklist_failures=2, window_s=100.0)
        tracker.record_failure(3, 0.0)
        tracker.record_failure(3, 50.0)
        assert tracker.failures_in_window(3, 60.0) == 2
        # The first failure ages out of the window.
        assert tracker.failures_in_window(3, 149.0) == 1
        assert tracker.failures_in_window(9, 60.0) == 0

    def test_should_drain_threshold(self):
        tracker = NodeHealthTracker(blacklist_failures=2, window_s=3600.0)
        tracker.record_failure(1, 10.0)
        assert not tracker.should_drain(1, 20.0)
        tracker.record_failure(1, 30.0)
        assert tracker.should_drain(1, 40.0)

    def test_disabled_blacklist_never_drains(self):
        tracker = NodeHealthTracker(blacklist_failures=None)
        for t in range(10):
            tracker.record_failure(1, float(t))
        assert not tracker.should_drain(1, 10.0)

    def test_suspects_exclude_drained_and_stale(self):
        tracker = NodeHealthTracker(blacklist_failures=2, window_s=100.0)
        tracker.record_failure(1, 0.0)
        tracker.record_failure(2, 90.0)
        tracker.mark_drained(1)
        assert tracker.suspect_nodes(95.0) == frozenset({2})
        # Node 2's failure ages out too.
        assert tracker.suspect_nodes(500.0) == frozenset()


class TestJobRecovery:
    def _running_job(self, runtime=1000.0):
        job = make_job(runtime=runtime)
        job.mark_started(
            0.0,
            Allocation(job_id=1, node_ids=(0,), kind=AllocationKind.EXCLUSIVE),
        )
        job.rate = 1.0
        return job

    def test_requeue_with_checkpoint_keeps_saved_work(self):
        job = self._running_job()
        job.checkpoint_tau = 300.0
        job.integrate_progress(950.0, shared_now=False)
        saved = job.checkpointed_progress()
        assert saved == 900.0
        job.mark_requeued(950.0, saved=saved)
        assert job.state is JobState.PENDING
        assert job.remaining_work == pytest.approx(100.0)
        assert job.lost_work == pytest.approx(50.0)
        assert job.requeues == 1

    def test_checkpoint_slowdown_property(self):
        job = make_job(runtime=100.0)
        assert job.checkpoint_slowdown == 1.0
        job.checkpoint_tau = 3600.0
        job.checkpoint_overhead = 60.0
        assert job.checkpoint_slowdown == pytest.approx(3600.0 / 3660.0)

    def test_mark_failed_wastes_everything(self):
        job = self._running_job()
        job.integrate_progress(400.0, shared_now=False)
        job.mark_failed(400.0)
        assert job.state is JobState.FAILED
        assert job.state.is_terminal
        assert job.lost_work == pytest.approx(400.0)
        assert job.remaining_work == pytest.approx(1000.0)
        assert job.end_time == 400.0


class TestCorrelatedTargeting:
    def test_eligible_racks_skip_down_nodes(self):
        cluster = Cluster.homogeneous(8, nodes_per_rack=4)
        assert eligible_racks(cluster) == [0, 1]
        for node_id in (0, 1, 2, 3):
            cluster.node(node_id).mark_down()
        assert eligible_racks(cluster) == [1]

    def test_eligible_nodes_skip_phantom_holders(self):
        cluster = Cluster.homogeneous(4, nodes_per_rack=4)
        cluster.allocate(cluster.build_exclusive(99, [0]))
        nodes = eligible_rack_nodes(cluster, 0, real_job_ids={1, 2})
        assert [n.node_id for n in nodes] == [1, 2, 3]
        nodes = eligible_rack_nodes(cluster, 0, real_job_ids={99})
        assert [n.node_id for n in nodes] == [0, 1, 2, 3]


def run_resilient(
    config,
    strategy="shared_backfill",
    num_jobs=50,
    nodes=16,
    nodes_per_rack=16,
    workload_seed=3,
):
    rng = np.random.default_rng(workload_seed)
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.9, offered_load=1.5
    ).generate(num_jobs, nodes, rng)
    cluster = Cluster.homogeneous(nodes, nodes_per_rack=nodes_per_rack)
    manager = WorkloadManager(
        cluster,
        config=SchedulerConfig(strategy=strategy),
        collector=ValidatingCollector(cluster),
    )
    manager.load(trace)
    manager.enable_resilience(config)
    return manager, manager.run()


class TestResilientSimulation:
    def test_checkpointing_reduces_lost_work(self):
        base = ResilienceConfig(
            node_mtbf_hours=100.0, repair_hours=1.0, max_requeues=None, seed=5
        )
        _, bare = run_resilient(base)
        _, ckpt = run_resilient(
            ResilienceConfig(
                node_mtbf_hours=100.0,
                repair_hours=1.0,
                max_requeues=None,
                checkpoint="daly",
                checkpoint_overhead_s=60.0,
                seed=5,
            )
        )
        lost_bare = sum(r.lost_work * r.num_nodes for r in bare.accounting)
        lost_ckpt = sum(r.lost_work * r.num_nodes for r in ckpt.accounting)
        assert lost_bare > 0
        assert lost_ckpt < lost_bare

    def test_bounded_requeues_produce_failed_jobs(self):
        manager, result = run_resilient(
            ResilienceConfig(
                node_mtbf_hours=8.0, repair_hours=0.5, max_requeues=0, seed=2
            )
        )
        assert manager.jobs_failed > 0
        failed = [r for r in result.accounting if r.state is JobState.FAILED]
        assert len(failed) == manager.jobs_failed
        # A failed job delivered nothing; its whole footprint is waste.
        assert all(r.work_done == 0.0 for r in failed)
        assert all(r.lost_work > 0.0 for r in failed)

    def test_blacklist_drains_flaky_nodes(self):
        manager, _ = run_resilient(
            ResilienceConfig(
                node_mtbf_hours=5.0,
                repair_hours=0.25,
                max_requeues=None,
                blacklist_failures=2,
                blacklist_window_hours=1000.0,
                seed=1,
            )
        )
        assert manager.health is not None
        assert manager.health.drained
        for node_id in manager.health.drained:
            assert manager.cluster.node(node_id).health is NodeHealth.DRAINED

    def test_rack_failures_recorded_with_blast(self):
        manager, _ = run_resilient(
            ResilienceConfig(
                rack_mtbf_hours=15.0,
                repair_hours=0.5,
                max_requeues=None,
                seed=4,
            ),
            nodes=32,
            nodes_per_rack=8,
        )
        racks = [f for f in manager.failure_log if f.kind == "rack"]
        assert manager.rack_failures_injected > 0
        assert len(racks) == manager.rack_failures_injected
        assert all(len(f.node_ids) >= 1 for f in racks)
        # At least one rack event should hit a whole 8-node rack.
        assert max(len(f.node_ids) for f in racks) > 1

    def test_conservation_every_job_one_terminal_record(self):
        # Heavy node + rack failures, bounded requeues, blacklist: the
        # harshest path. Every submitted job must end in exactly one
        # terminal accounting record.
        manager, result = run_resilient(
            ResilienceConfig(
                node_mtbf_hours=10.0,
                rack_mtbf_hours=30.0,
                repair_hours=0.5,
                checkpoint="periodic",
                checkpoint_interval_s=600.0,
                max_requeues=1,
                blacklist_failures=3,
                seed=6,
            ),
            nodes=32,
            nodes_per_rack=8,
            num_jobs=60,
        )
        assert len(result.accounting) == 60
        assert len({r.job_id for r in result.accounting}) == 60
        assert all(r.state.is_terminal for r in result.accounting)
        assert all(job.state.is_terminal for job in manager.jobs.values())

    def test_resilience_report_attached(self):
        manager, result = run_resilient(
            ResilienceConfig(node_mtbf_hours=50.0, max_requeues=None, seed=5)
        )
        report = result.resilience
        assert report is not None
        assert report.failures == manager.failures_injected
        assert report.goodput_node_hours > 0
        assert 0.0 <= report.goodput_fraction <= 1.0
        data = report.as_dict()
        assert data["failures"] == report.failures
        assert isinstance(data["requeue_histogram"], dict)

    def test_legacy_enable_failures_unchanged(self):
        # enable_failures delegates to the resilience layer with
        # unbounded requeues: same seed, same eviction schedule as the
        # pre-resilience implementation (covered by test_failures.py
        # determinism); here we check the delegation wiring.
        rng = np.random.default_rng(3)
        trace = TrinityWorkloadGenerator(
            share_obeys_app=False, share_fraction=0.9, offered_load=1.5
        ).generate(30, 16, rng)
        cluster = Cluster.homogeneous(16)
        manager = WorkloadManager(cluster)
        manager.load(trace)
        manager.enable_failures(
            FailureModel(mtbf_node_hours=100.0, repair_hours=2.0), seed=9
        )
        assert manager.resilience is not None
        assert manager.resilience.max_requeues is None
        result = manager.run()
        # Unbounded requeues: nothing may terminate FAILED.
        assert manager.jobs_failed == 0
        assert result.completed_jobs == len(result.accounting)
