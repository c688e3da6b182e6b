"""The cluster's incremental occupancy indexes and the prediction memos.

:class:`~repro.cluster.machine.Cluster` keeps its running ids, idle
ids, busy/shared counts and per-shared-job full-node counts up to date
as jobs allocate and release and nodes change health;
:meth:`Cluster.check_indexes` compares them with a full scan.  The
indexes and the interference memos are derived state: snapshots leave
them out and restore rebuilds them.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.cluster.machine import Cluster
from repro.core.pairing import PairingPolicy
from repro.errors import AllocationError
from repro.interference.model import InterferenceModel
from repro.interference.profile import ResourceProfile
from repro.resilience import ResilienceConfig
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import build_manager
from repro.snapshot.state import snapshot_bytes
from repro.workload.trinity import TrinityWorkloadGenerator

INDEXES = ("_running_ids", "_idle_ids", "_busy", "_shared", "_full_nodes")


class TestIndexMaintenance:
    def test_exclusive_allocate_and_release(self):
        cluster = Cluster.homogeneous(6)
        cluster.allocate(cluster.build_exclusive(4, [1, 2]))
        assert cluster.idle_node_ids() == [0, 3, 4, 5]
        assert (cluster.num_busy(), cluster.num_shared()) == (2, 0)
        assert cluster.joinable_job_ids() == []
        cluster.check_indexes()
        cluster.release(4)
        assert cluster.num_idle() == 6 and cluster.num_busy() == 0
        cluster.check_indexes()

    def test_join_fills_and_release_reopens_a_group(self):
        cluster = Cluster.homogeneous(6)
        cluster.allocate(cluster.build_shared(1, [0, 1]))
        cluster.allocate(cluster.build_shared(2, [2, 3]))
        assert cluster.joinable_job_ids() == [1, 2]
        # Job 3 joins all of job 1 and half of job 2.
        cluster.allocate(cluster.build_shared(3, [0, 1, 2]))
        assert cluster.joinable_job_ids() == []
        assert (cluster.num_busy(), cluster.num_shared()) == (4, 3)
        cluster.check_indexes()
        cluster.release(3)
        assert cluster.joinable_job_ids() == [1, 2]
        assert cluster.num_shared() == 0
        cluster.check_indexes()
        cluster.release(1)
        assert cluster.joinable_job_ids() == [2]
        assert cluster.idle_node_ids() == [0, 1, 4, 5]
        cluster.check_indexes()

    def test_running_ids_sorted_with_phantoms(self):
        cluster = Cluster.homogeneous(4)
        for job_id, node in ((7, 0), (-1, 1), (3, 2)):
            cluster.allocate(cluster.build_exclusive(job_id, [node]))
        assert cluster.running_job_ids() == [-1, 3, 7]
        cluster.release(3)
        assert cluster.running_job_ids() == [-1, 7]
        cluster.check_indexes()

    def test_failed_allocation_leaves_indexes_untouched(self):
        cluster = Cluster.homogeneous(4)
        cluster.allocate(cluster.build_exclusive(1, [2]))
        with pytest.raises(AllocationError):
            cluster.allocate(cluster.build_exclusive(2, [0, 1, 2]))
        assert cluster.idle_node_ids() == [0, 1, 3]
        assert cluster.running_job_ids() == [1]
        cluster.check_indexes()

    def test_returned_lists_are_copies(self):
        cluster = Cluster.homogeneous(3)
        cluster.idle_node_ids().clear()
        cluster.running_job_ids().append(5)
        assert cluster.num_idle() == 3
        cluster.check_indexes()

    def test_reset_releases_into_the_indexes(self):
        cluster = Cluster.homogeneous(4)
        cluster.allocate(cluster.build_shared(1, [0, 1]))
        cluster.allocate(cluster.build_shared(2, [0, 1]))
        cluster.reset()
        assert cluster.num_idle() == 4 and cluster.running_job_ids() == []
        cluster.check_indexes()


class TestIndexesAcrossSnapshots:
    def test_indexes_are_not_pickled(self):
        cluster = Cluster.homogeneous(4)
        cluster.allocate(cluster.build_shared(1, [0, 1]))
        state = cluster.__getstate__()
        assert not set(INDEXES) & set(state)
        assert "_allocations" in state
        restored = pickle.loads(pickle.dumps(cluster))
        assert restored.joinable_job_ids() == [1]
        restored.check_indexes()

    def test_state_without_indexes_restores(self):
        # What a snapshot written before the indexes existed holds.
        cluster = Cluster.homogeneous(4)
        cluster.allocate(cluster.build_exclusive(1, [3]))
        legacy = Cluster.__new__(Cluster)
        legacy.__setstate__(dict(cluster.__getstate__()))
        assert legacy.idle_node_ids() == [0, 1, 2]
        legacy.check_indexes()

    def test_mid_run_snapshot_restores_indexes_and_run(self):
        resilience = ResilienceConfig(
            node_mtbf_hours=30.0, repair_hours=2.0, max_requeues=None,
            blacklist_failures=2, seed=4,
        )

        def build():
            trace = TrinityWorkloadGenerator(
                share_obeys_app=False, share_fraction=0.9, offered_load=1.5
            ).generate(60, 16, np.random.default_rng(21))
            config = SchedulerConfig(
                strategy="shared_backfill", resilience=resilience
            )
            return build_manager(
                trace, num_nodes=16, strategy="shared_backfill", config=config
            )

        baseline_manager = build()
        baseline = baseline_manager.run()

        manager = build()
        manager.sim.run(until=8000.0)
        assert manager.sim.heap, "snapshot point must be mid-run"
        assert manager.cluster.running_job_ids(), "jobs must be running"
        restored = pickle.loads(snapshot_bytes(manager))
        for name in INDEXES:
            assert getattr(restored.cluster, name) == getattr(
                manager.cluster, name
            ), name
        restored.cluster.check_indexes()

        result = restored.run()
        restored.cluster.check_indexes()
        assert restored.failures_injected > 0
        assert list(result.accounting) == list(baseline.accounting)
        for name in ("times", "busy_nodes", "shared_nodes",
                     "queue_lengths", "work_rates"):
            assert getattr(restored.collector, name) == getattr(
                baseline_manager.collector, name
            ), name


class TestPredictionMemos:
    def test_memo_keys_on_profile_values_not_names(self):
        model = InterferenceModel()
        light = ResourceProfile("app", core_demand=0.4, membw_demand=0.2,
                                cache_footprint=0.2)
        heavy = ResourceProfile("app", core_demand=0.9, membw_demand=0.9,
                                cache_footprint=0.9)
        fresh = InterferenceModel()
        assert model.speed(light, light) == fresh._predict(light, light)
        assert model.speed(heavy, heavy) == fresh._predict(heavy, heavy)
        assert model.speed(light, light) != model.speed(heavy, heavy)

    def test_memos_are_not_pickled(self):
        model = InterferenceModel()
        policy = PairingPolicy(model=model)
        profile = ResourceProfile("x", core_demand=0.5, membw_demand=0.3,
                                  cache_footprint=0.3)
        verdict = policy.compatible(profile, profile)
        assert model._speeds and policy._verdicts
        assert "_speeds" not in model.__getstate__()
        assert "_verdicts" not in policy.__getstate__()
        restored = pickle.loads(pickle.dumps(policy))
        assert restored._verdicts == {} and restored.model._speeds == {}
        assert restored.compatible(profile, profile) == verdict

    def test_policy_is_frozen(self):
        policy = PairingPolicy(model=InterferenceModel())
        with pytest.raises(AttributeError):
            policy.threshold = 0.5
