"""The engine's incremental indexes and the prediction memos.

:class:`~repro.cluster.machine.Cluster` keeps its running ids, idle
ids, busy/shared counts, per-shared-job co-runner counts and smallest
node memory up to date as jobs allocate and release and nodes change
health; :meth:`Cluster.check_indexes` compares them with a full scan.
The manager keeps each node's walltime release bound the same way
(:meth:`WorkloadManager.check_indexes`), and a scheduler pass's
availability view keeps a subset-sum mask of its resident groups.
The indexes and the interference memos are derived state: snapshots
leave them out and restore rebuilds them.
"""

from __future__ import annotations

import dataclasses
import pickle
import re
from itertools import combinations

import numpy as np
import pytest

from repro.cluster.allocation import AllocationKind
from repro.cluster.machine import Cluster
from repro.cluster.node import Node, NodeMode
from repro.core.easy_backfill import compute_reservation, node_release_times
from repro.core.pairing import PairingPolicy
from repro.core.placement import place_best
from repro.core.selector import AvailabilityView
from repro.errors import AllocationError
from repro.interference.model import InterferenceModel
from repro.interference.profile import ResourceProfile
from repro.metrics.collector import MetricsCollector
from repro.resilience import ResilienceConfig
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import WorkloadManager, build_manager
from repro.slurm.reservations import Reservation
from repro.snapshot.state import PICKLE_PROTOCOL, snapshot_bytes
from repro.workload.trinity import TrinityWorkloadGenerator
from tests.conftest import make_job
from tests.reference_engine import ReferenceAvailabilityView
from tests.test_core_pairing_selector import make_ctx, profile, start_shared

INDEXES = (
    "_running_ids", "_idle_ids", "_busy", "_shared", "_co_runners",
    "min_memory_mb", "_uniform_memory",
)


def scanned_co_runners(cluster, job_id):
    """A job's co-runner set, built by walking its nodes."""
    return {
        other
        for node in cluster.nodes_of(job_id)
        if (other := node.co_runner_of(job_id)) is not None
    }


def cluster_state(cluster):
    """Everything allocate may touch: node occupancy, allocation
    records (with their lanes) and every index, key order included."""
    return (
        [(node.mode, dict(node._occupants)) for node in cluster.nodes],
        repr(cluster._allocations),
        {name: repr(getattr(cluster, name)) for name in INDEXES},
    )


def sharing_manager(resilience=None, seed=21, jobs=60, nodes=16, **options):
    """A deep, mostly shareable shared_backfill run on *nodes* nodes."""
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.9, offered_load=1.5
    ).generate(jobs, nodes, np.random.default_rng(seed))
    config = SchedulerConfig(
        strategy="shared_backfill", resilience=resilience, **options
    )
    return build_manager(
        trace, num_nodes=nodes, strategy="shared_backfill", config=config
    )


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


class TestCoRunnerIndex:
    def test_index_matches_the_scan_after_every_event(self):
        # Joins, evictions of shared jobs under node and rack failures,
        # and a reservation phantom: after every event the index, the
        # sets read from it and their iteration order must equal a
        # walk of each job's nodes.
        manager = sharing_manager(resilience=ResilienceConfig(
            node_mtbf_hours=30.0, rack_mtbf_hours=60.0, repair_hours=2.0,
            max_requeues=None, seed=4,
        ))
        manager.add_reservation(
            Reservation("maintenance", start=1.0, end=9000.0, num_nodes=2)
        )
        cluster = manager.cluster
        pairs = phantom = 0
        handlers = manager.handlers()
        while manager.sim.heap:
            manager.sim.step(handlers)
            cluster.check_indexes()
            for job_id in cluster.running_job_ids():
                shared = cluster.jobs_sharing_with(job_id)
                assert list(shared) == list(scanned_co_runners(cluster, job_id))
                pairs += bool(shared)
            phantom += any(job_id < 0 for job_id in cluster.running_job_ids())
        assert pairs and phantom
        assert manager.jobs_requeued > 0
        assert any(
            set(record.evicted_job_ids) & {
                r.job_id for r in manager.accounting if r.was_shared
            }
            for record in manager.failure_log
        ), "some evicted job must have shared"
        assert cluster._co_runners == {}

    def test_join_and_release_count_shared_nodes(self):
        cluster = Cluster.homogeneous(6)
        cluster.allocate(cluster.build_shared(1, [0, 1]))
        cluster.allocate(cluster.build_shared(2, [2, 3]))
        cluster.allocate(cluster.build_shared(3, [0, 1, 2]))
        assert cluster._co_runners == {1: {3: 2}, 2: {3: 1}, 3: {1: 2, 2: 1}}
        assert cluster.jobs_sharing_with(3) == {1, 2}
        cluster.release(1)
        assert cluster._co_runners == {2: {3: 1}, 3: {2: 1}}
        cluster.check_indexes()
        cluster.release(2)
        assert cluster._co_runners == {3: {}}
        assert cluster.joinable_job_ids() == [3]
        cluster.check_indexes()

    def test_release_reports_the_job_left_on_each_node(self):
        # Each co-runner left behind, with the nodes it now holds alone.
        cluster = Cluster.homogeneous(4)
        cluster.allocate(cluster.build_shared(1, [0, 1]))
        cluster.allocate(cluster.build_shared(2, [1, 2]))
        assert cluster.release(2) == {1: (1,)}
        assert cluster.release(1) == {}
        cluster.allocate(cluster.build_exclusive(3, [3, 0]))
        assert cluster.release(3) == {}
        cluster.check_indexes()

    def test_second_co_runner_is_keyed_in_node_order(self):
        # Job 11 joins node 1 before job 3 joins node 0; a walk of job
        # 1's nodes meets 3 first.  11 and 3 share a hash bucket of a
        # small set, so the order they are added decides its layout.
        cluster = Cluster.homogeneous(4)
        cluster.allocate(cluster.build_shared(1, [0, 1]))
        cluster.allocate(cluster.build_shared(11, [1]))
        cluster.allocate(cluster.build_shared(3, [0]))
        assert list(cluster._co_runners[1]) == [3, 11]
        walked = scanned_co_runners(cluster, 1)
        joined = {other for other in (11, 3)}
        assert list(walked) != list(joined)
        assert list(cluster.jobs_sharing_with(1)) == list(walked)
        cluster.check_indexes()
        cluster.release(3)
        assert list(cluster.jobs_sharing_with(1)) == [11]
        cluster.check_indexes()

    def test_release_keeps_the_remaining_co_runners_in_node_order(self):
        # Job 1's co-runners joined in the order 11, 3, 5 and sit on
        # its nodes 2, 0 and 1.  Releasing 5 deletes it from job 1's
        # map and leaves the others in node order, not join order.
        cluster = Cluster.homogeneous(4)
        cluster.allocate(cluster.build_shared(1, [0, 1, 2]))
        for job_id, node in ((11, 2), (3, 0), (5, 1)):
            cluster.allocate(cluster.build_shared(job_id, [node]))
        assert list(cluster._co_runners[1]) == [3, 5, 11]
        assert cluster.release(5) == {1: (1,)}
        assert list(cluster._co_runners[1]) == [3, 11]
        assert list(cluster.jobs_sharing_with(1)) == list(
            scanned_co_runners(cluster, 1)
        )
        cluster.check_indexes()

    def test_stale_co_runner_count_is_detected(self):
        cluster = Cluster.homogeneous(4)
        cluster.allocate(cluster.build_shared(1, [0, 1]))
        cluster.allocate(cluster.build_shared(2, [0, 1]))
        cluster._co_runners[1][2] = 1
        with pytest.raises(AllocationError, match="_co_runners is stale"):
            cluster.check_indexes()


def _fail_down(cluster):
    cluster.mark_down(2)


def _fail_exclusive(cluster):
    cluster.allocate(cluster.build_exclusive(3, [2]))


def _fail_no_lane(cluster):
    cluster.allocate(cluster.build_shared(3, [2]))
    cluster.allocate(cluster.build_shared(4, [2]))


def _fail_already_there(cluster):
    # Only a node changed behind the cluster's back can already hold
    # the job: the cluster refuses a second allocation of a job, and
    # an allocation record refuses a repeated node.
    node = cluster.nodes[2]
    node._occupants[0] = 5
    node.mode = NodeMode.SHARED


class TestSharedAllocationRollback:
    @pytest.mark.parametrize("arrange, message", [
        (_fail_down, "node 2 is down"),
        (_fail_exclusive, "node 2 is exclusively allocated; cannot share"),
        (_fail_no_lane, "node 2 shared lanes are full"),
        (_fail_already_there, "job 5 already occupies node 2"),
    ])
    def test_failure_on_a_middle_node_leaves_everything_untouched(
            self, arrange, message):
        # Job 5 would join job 1 on node 0 and open node 1 before
        # failing on node 2.
        cluster = Cluster.homogeneous(6)
        cluster.allocate(cluster.build_shared(1, [0]))
        arrange(cluster)
        before = cluster_state(cluster)
        with pytest.raises(AllocationError, match=f"^{re.escape(message)}$"):
            cluster.allocate(cluster.build_shared(5, [0, 1, 2, 3]))
        assert cluster_state(cluster) == before
        assert not cluster.has_allocation(5)
        if arrange is not _fail_already_there:
            cluster.check_indexes()
            # The same request succeeds once node 2 is out of it.
            cluster.allocate(cluster.build_shared(5, [0, 1, 3]))
            assert cluster.jobs_sharing_with(5) == {1}
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

    def test_min_memory_tracks_the_smallest_node(self):
        cluster = Cluster(
            Node(node_id=i, memory_mb=mb)
            for i, mb in enumerate((96_000, 64_000, 128_000))
        )
        assert cluster.min_memory_mb == 64_000
        restored = pickle.loads(pickle.dumps(cluster))
        assert restored.min_memory_mb == 64_000
        restored.check_indexes()

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
        manager.sim.run(manager.handlers(), until=8000.0)
        assert manager.sim.heap, "snapshot point must be mid-run"
        assert manager.cluster.running_job_ids(), "jobs must be running"
        restored = pickle.loads(snapshot_bytes(manager))
        for name in INDEXES:
            assert getattr(restored.cluster, name) == getattr(
                manager.cluster, name
            ), name
        assert restored._release_bounds == manager._release_bounds
        assert restored._release_bounds, "bounds must be non-trivial"
        restored.check_indexes()

        result = restored.run()
        restored.check_indexes()
        assert restored.failures_injected > 0
        assert list(result.accounting) == list(baseline.accounting)
        for name in ("times", "busy_nodes", "shared_nodes",
                     "queue_lengths", "work_rates"):
            assert getattr(restored.collector, name) == getattr(
                baseline_manager.collector, name
            ), name


    def test_snapshot_bytes_hold_no_derived_state(self, monkeypatch):
        # A mid-run snapshot pickles exactly the state a manager
        # without release bounds, running-job map, resident groups or
        # rate epoch, a cluster without indexes, a collector without
        # its kept work rate and profiles without their kept hashes
        # (and none with a __getstate__) would.
        manager = sharing_manager()
        handlers = manager.handlers()
        while not manager.cluster.num_shared():
            manager.sim.step(handlers)
        assert manager._release_bounds, "snapshot point must be mid-run"
        assert manager._running
        blob = snapshot_bytes(manager)
        for name in (b"_release_bounds", b"_co_runners", b"min_memory_mb",
                     b"_uniform_memory", b"_groups",
                     b"rate_epoch", b"_work_rate", b"_hash",
                     b"_on_submit", b"_unwritten"):
            assert name not in blob, name
        for name in ("_release_bounds", "_running", "_groups", "rate_epoch"):
            del manager.__dict__[name]
        for name in INDEXES:
            del manager.cluster.__dict__[name]
        for name in ("_rate_epoch", "_work_rate"):
            del manager.collector.__dict__[name]
        for profile_ in {*manager.profiles.values(),
                         manager.config.default_profile}:
            profile_.__dict__.pop("_hash", None)
        monkeypatch.delattr(WorkloadManager, "__getstate__")
        monkeypatch.delattr(Cluster, "__getstate__")
        monkeypatch.delattr(MetricsCollector, "__getstate__")
        monkeypatch.delattr(ResourceProfile, "__getstate__")
        assert pickle.dumps(manager, protocol=PICKLE_PROTOCOL) == blob


class TestReleaseBounds:
    def test_bounds_match_the_scan_after_every_event(self):
        # Failures evict running jobs (some from shared nodes); the
        # reservation seizes idle nodes under a phantom id that holds
        # no bound; joins put two bounds on one node.
        manager = sharing_manager(resilience=ResilienceConfig(
            node_mtbf_hours=30.0, repair_hours=2.0, max_requeues=None,
            seed=4,
        ))
        manager.add_reservation(
            Reservation("maintenance", start=1.0, end=9000.0, num_nodes=2)
        )
        cluster = manager.cluster
        joined = phantom = 0
        handlers = manager.handlers()
        while manager.sim.heap:
            manager.sim.step(handlers)
            manager.check_indexes()
            joined += cluster.num_shared() > 0
            phantom += any(job_id < 0 for job_id in cluster.running_job_ids())
        assert joined and phantom
        assert manager.jobs_requeued > 0
        assert manager._release_bounds == {}

    def test_stale_bound_is_detected(self):
        manager = sharing_manager()
        manager.sim.run(manager.handlers(), until=8000.0)
        node_id = next(iter(manager._release_bounds))
        manager._release_bounds[node_id] += 1.0
        with pytest.raises(AllocationError, match="release bounds"):
            manager.check_indexes()

    def test_predicted_ends_reserve_by_scan(self):
        # The walltime predictor moves predicted ends with the clock,
        # so its passes scan the running jobs; the bounds are kept.
        assert sharing_manager()._pass_release_bounds() is not None
        manager = sharing_manager(use_walltime_prediction=True)
        manager.sim.run(manager.handlers(), until=8000.0)
        assert manager._pass_release_bounds() is None
        assert manager._release_bounds
        manager.check_indexes()

    def test_reservation_from_bounds_matches_scan_after_greedy_placements(self):
        # At every pass, replay the greedy phase once reserving against
        # the maintained bounds and once scanning the running jobs: the
        # release times and the head's reservation must agree, also
        # when the greedy phase has already joined and opened groups.
        manager = sharing_manager()
        schedule = manager.strategy.schedule
        joined = opened = compared = 0

        def checking_schedule(ctx):
            nonlocal joined, opened, compared
            assert ctx.release_bounds is manager._release_bounds
            answers = []
            for bounds in (ctx.release_bounds, None):
                probe = dataclasses.replace(ctx, release_bounds=bounds)
                view = probe.view = AvailabilityView(probe)
                placements, kinds, head = [], [], None
                for job in ctx.pending:
                    idle_before = view.idle_count
                    placement = place_best(job, probe, view)
                    if placement is None:
                        head = job
                        break
                    placements.append(placement)
                    if placement.kind is AllocationKind.SHARED:
                        kinds.append(
                            "join" if view.idle_count == idle_before else "open"
                        )
                if head is None:
                    return schedule(ctx)
                answers.append((
                    node_release_times(probe, placements),
                    compute_reservation(probe, view, head, placements),
                    kinds,
                ))
            assert answers[0] == answers[1]
            compared += 1
            joined += "join" in answers[0][2]
            opened += "open" in answers[0][2]
            return schedule(ctx)

        manager.strategy.schedule = checking_schedule
        manager.run()
        assert compared and joined and opened


class TestGroupMemory:
    def test_uniform_nodes_read_the_index(self):
        cluster = Cluster.homogeneous(4, memory_mb=96_000)
        assert cluster._uniform_memory
        assert cluster.min_memory_of((0, 3)) == 96_000

    def test_groups_match_the_reference_view_on_mixed_memory(self):
        # On nodes of three memory sizes, every resident group's
        # smallest memory, read from the cluster, must equal a walk of
        # its nodes, at every pass of a sharing run.
        cluster = Cluster(
            Node(node_id=i, memory_mb=(128_000, 96_000, 64_000)[i // 4])
            for i in range(12)
        )
        assert not cluster._uniform_memory
        trace = TrinityWorkloadGenerator(
            share_obeys_app=False, share_fraction=0.9, offered_load=1.5
        ).generate(60, 12, np.random.default_rng(21))
        manager = WorkloadManager(
            cluster, config=SchedulerConfig(strategy="shared_backfill"),
        )
        manager.load(trace)
        schedule = manager.strategy.schedule
        above_minimum = 0

        def checking_schedule(ctx):
            nonlocal above_minimum
            groups = AvailabilityView(ctx).groups
            assert groups == ReferenceAvailabilityView(ctx).groups
            above_minimum += any(
                group.min_memory_mb > cluster.min_memory_mb
                for group in groups.values()
            )
            return schedule(ctx)

        manager.strategy.schedule = checking_schedule
        manager.run()
        assert above_minimum


class TestJoinMask:
    SIZES = (1, 2, 2, 3)

    def view_with_groups(self, cluster):
        running, node = {}, 0
        for job_id, size in enumerate(self.SIZES, start=1):
            job = make_job(job_id=job_id, nodes=size, app="GTC",
                           shareable=True)
            running[job_id] = start_shared(
                cluster, job, list(range(node, node + size))
            )
            node += size
        ctx = make_ctx(cluster, running=running)
        return AvailabilityView(ctx)

    @staticmethod
    def assert_mask_exact(view):
        sizes = [group.size for group in view.groups.values()]
        sums = {
            sum(chosen)
            for count in range(len(sizes) + 1)
            for chosen in combinations(sizes, count)
        }
        for need in range(sum(sizes) + 3):
            assert view.may_cover(need) == (need in sums), need
        for app in ("GTC", "SNAP", "AMG"):
            assert view.joinable_groups(profile(app)) == (
                ReferenceAvailabilityView.joinable_groups(view, profile(app))
            ), app

    def test_mask_stays_exact_as_groups_change(self):
        cluster = Cluster.homogeneous(16)
        view = self.view_with_groups(cluster)
        self.assert_mask_exact(view)
        assert not view.may_cover(9)
        view.take_group(view.groups[2])
        self.assert_mask_exact(view)
        assert not view.may_cover(8)
        joiner = make_job(job_id=9, nodes=5, app="SNAP", shareable=True)
        view.open_shared(view.take_idle(5), joiner, profile("SNAP"))
        self.assert_mask_exact(view)
        assert view.may_cover(11)
        view.take_group(view.groups[1])
        view.take_group(view.groups[9])
        self.assert_mask_exact(view)

    def test_memo_returns_one_list_until_groups_change(self):
        cluster = Cluster.homogeneous(16)
        view = self.view_with_groups(cluster)
        first = view.joinable_groups(profile("SNAP"))
        assert view.joinable_groups(profile("SNAP")) is first
        view.take_group(view.groups[3])
        assert view.joinable_groups(profile("SNAP")) is not first


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
