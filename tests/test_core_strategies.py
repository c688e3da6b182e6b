"""Behavioural tests for the scheduling strategies.

Each scenario builds a small cluster + queue by hand and asserts on the
exact placement decisions — the properties that define each algorithm.
"""

import pytest

from repro.cluster.allocation import AllocationKind
from repro.cluster.machine import Cluster
from repro.core.conservative import AvailabilityProfile, ConservativeBackfillStrategy
from repro.core.easy_backfill import EasyBackfillStrategy, compute_reservation
from repro.core.fcfs import FcfsStrategy
from repro.core.first_fit import FirstFitStrategy
from repro.core.selector import AvailabilityView
from repro.core.shared_backfill import SharedBackfillStrategy
from repro.core.shared_conservative import SharedConservativeStrategy
from repro.core.shared_first_fit import SharedFirstFitStrategy
from repro.core.strategy import Placement, Strategy, all_strategy_names, make_strategy
from repro.errors import ConfigError, SchedulingError
from tests.conftest import make_job
from tests.test_core_pairing_selector import make_ctx, start_shared


def start_exclusive(cluster, job, node_ids):
    allocation = cluster.allocate(cluster.build_exclusive(job.job_id, node_ids))
    job.mark_started(0.0, allocation)
    job.effective_limit = job.spec.walltime_req
    return job


class TestRegistry:
    def test_all_names_instantiable(self):
        for name in all_strategy_names():
            strategy = make_strategy(name)
            assert isinstance(strategy, Strategy)
            assert strategy.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            make_strategy("magic")

    def test_placement_validates_node_count(self):
        with pytest.raises(SchedulingError, match="requested"):
            Placement(
                job=make_job(nodes=2), node_ids=(0,), kind=AllocationKind.EXCLUSIVE
            )

    def test_placement_rejects_duplicates(self):
        with pytest.raises(SchedulingError, match="repeats"):
            Placement(
                job=make_job(nodes=2), node_ids=(0, 0),
                kind=AllocationKind.EXCLUSIVE,
            )


class TestFcfs:
    def test_blocks_at_first_misfit(self, cluster):
        pending = [
            make_job(job_id=1, nodes=4),
            make_job(job_id=2, nodes=9),   # cannot fit: blocks everything
            make_job(job_id=3, nodes=1),
        ]
        ctx = make_ctx(cluster, pending=pending)
        placements = FcfsStrategy().schedule(ctx)
        assert [p.job.job_id for p in placements] == [1]

    def test_places_everything_that_fits(self, cluster):
        pending = [make_job(job_id=i, nodes=2) for i in range(1, 5)]
        ctx = make_ctx(cluster, pending=pending)
        placements = FcfsStrategy().schedule(ctx)
        assert len(placements) == 4


class TestFirstFit:
    def test_skips_blocked_jobs(self, cluster):
        pending = [
            make_job(job_id=1, nodes=4),
            make_job(job_id=2, nodes=9),
            make_job(job_id=3, nodes=4),
        ]
        ctx = make_ctx(cluster, pending=pending)
        placements = FirstFitStrategy().schedule(ctx)
        assert [p.job.job_id for p in placements] == [1, 3]

    def test_stops_scanning_when_cluster_full(self, cluster):
        pending = [make_job(job_id=i, nodes=8) for i in range(1, 4)]
        ctx = make_ctx(cluster, pending=pending)
        placements = FirstFitStrategy().schedule(ctx)
        assert len(placements) == 1


class TestEasyBackfill:
    def test_reservation_shadow_time(self, cluster):
        # 6 nodes busy until t=100, head needs 8.
        running = start_exclusive(
            cluster, make_job(job_id=1, nodes=6, runtime=80.0, walltime=100.0),
            list(range(6)),
        )
        head = make_job(job_id=2, nodes=8)
        ctx = make_ctx(cluster, running={1: running}, pending=[head])
        view = AvailabilityView(ctx)
        shadow, extra = compute_reservation(ctx, view, head, [])
        assert shadow == pytest.approx(100.0)
        assert extra == 0

    def test_reservation_extra_nodes(self, cluster):
        running = start_exclusive(
            cluster, make_job(job_id=1, nodes=6, runtime=80.0, walltime=100.0),
            list(range(6)),
        )
        head = make_job(job_id=2, nodes=4)  # at shadow, 8 free, 4 extra
        ctx = make_ctx(cluster, running={1: running}, pending=[head])
        view = AvailabilityView(ctx)
        shadow, extra = compute_reservation(ctx, view, head, [])
        # Nodes free as the running job's nodes release one by one;
        # with 2 idle now, the 2nd release reaches 4.
        assert shadow == pytest.approx(100.0)
        assert extra == 0

    def test_reservation_head_never_fits(self, cluster):
        running = start_exclusive(
            cluster, make_job(job_id=1, nodes=6, runtime=80.0, walltime=100.0),
            list(range(6)),
        )
        head = make_job(job_id=2, nodes=cluster.num_nodes + 1)
        ctx = make_ctx(cluster, running={1: running}, pending=[head])
        view = AvailabilityView(ctx)
        shadow, extra = compute_reservation(ctx, view, head, [])
        assert shadow == float("inf")
        assert extra == cluster.num_nodes - 6

    def test_short_job_backfills(self, cluster):
        running = start_exclusive(
            cluster, make_job(job_id=1, nodes=6, runtime=80.0, walltime=100.0),
            list(range(6)),
        )
        head = make_job(job_id=2, nodes=8, walltime=500.0)
        filler = make_job(job_id=3, nodes=2, runtime=30.0, walltime=50.0)
        ctx = make_ctx(cluster, running={1: running}, pending=[head, filler])
        placements = EasyBackfillStrategy().schedule(ctx)
        assert [p.job.job_id for p in placements] == [3]

    def test_long_job_does_not_delay_reservation(self, cluster):
        running = start_exclusive(
            cluster, make_job(job_id=1, nodes=6, runtime=80.0, walltime=100.0),
            list(range(6)),
        )
        head = make_job(job_id=2, nodes=8, walltime=500.0)
        # Walltime 300 > shadow 100 and needs both idle nodes -> barred.
        long_filler = make_job(job_id=3, nodes=2, runtime=200.0, walltime=300.0)
        ctx = make_ctx(cluster, running={1: running}, pending=[head, long_filler])
        placements = EasyBackfillStrategy().schedule(ctx)
        assert placements == []

    def test_greedy_phase_places_in_order(self, cluster):
        pending = [
            make_job(job_id=1, nodes=4),
            make_job(job_id=2, nodes=4),
            make_job(job_id=3, nodes=1),
        ]
        ctx = make_ctx(cluster, pending=pending)
        placements = EasyBackfillStrategy().schedule(ctx)
        assert [p.job.job_id for p in placements] == [1, 2]
        # Job 3 is behind the blocked head... but there is no idle node
        # left anyway.


class TestConservative:
    def test_availability_profile_reserve_and_query(self):
        profile = AvailabilityProfile(start=0.0, free_now=4)
        profile.add_release(100.0, 4)
        assert profile.earliest_start(duration=50.0, count=8) == 100.0
        profile.reserve(100.0, 50.0, 8)
        # One node is still free before the reservation window...
        assert profile.earliest_start(duration=10.0, count=1) == 0.0
        # ... but five are only free once the reservation ends.
        assert profile.earliest_start(duration=10.0, count=5) == 150.0

    def test_profile_rejects_negative(self):
        profile = AvailabilityProfile(start=0.0, free_now=2)
        with pytest.raises(SchedulingError, match="negative"):
            profile.reserve(0.0, 10.0, 3)

    def test_immediate_start_when_free(self, cluster):
        ctx = make_ctx(cluster, pending=[make_job(job_id=1, nodes=4)])
        placements = ConservativeBackfillStrategy().schedule(ctx)
        assert len(placements) == 1

    def test_no_lower_priority_job_delays_higher(self, cluster):
        running = start_exclusive(
            cluster, make_job(job_id=1, nodes=6, runtime=80.0, walltime=100.0),
            list(range(6)),
        )
        head = make_job(job_id=2, nodes=8, walltime=500.0)
        # This job would finish at 150 > shadow 100 on the 2 idle
        # nodes; under conservative it must honour head's reservation
        # which consumes ALL nodes from t=100 to 600.
        filler = make_job(job_id=3, nodes=2, runtime=100.0, walltime=150.0)
        ctx = make_ctx(cluster, running={1: running}, pending=[head, filler])
        placements = ConservativeBackfillStrategy().schedule(ctx)
        assert placements == []

    def test_fitting_filler_starts(self, cluster):
        running = start_exclusive(
            cluster, make_job(job_id=1, nodes=6, runtime=80.0, walltime=100.0),
            list(range(6)),
        )
        head = make_job(job_id=2, nodes=8, walltime=500.0)
        filler = make_job(job_id=3, nodes=2, runtime=50.0, walltime=90.0)
        ctx = make_ctx(cluster, running={1: running}, pending=[head, filler])
        placements = ConservativeBackfillStrategy().schedule(ctx)
        assert [p.job.job_id for p in placements] == [3]

    def test_max_reservations_cap(self, cluster):
        strategy = ConservativeBackfillStrategy(max_reservations=2)
        pending = [make_job(job_id=i, nodes=2) for i in range(1, 6)]
        ctx = make_ctx(cluster, pending=pending)
        placements = strategy.schedule(ctx)
        assert len(placements) == 2  # cap limits work per pass

    def test_bad_cap_rejected(self):
        with pytest.raises(SchedulingError):
            ConservativeBackfillStrategy(max_reservations=0)

    def test_overdue_release_frees_after_the_start(self):
        profile = AvailabilityProfile(start=100.0, free_now=2)
        profile.add_release(100.0, 6)
        profile.add_release(40.0, 1)
        assert profile.free[0] == 2
        assert profile.earliest_start(duration=10.0, count=8) > 100.0

    @pytest.mark.parametrize(
        "strategy", [ConservativeBackfillStrategy(), SharedConservativeStrategy()]
    )
    def test_overdue_predicted_end_does_not_admit_now(self, cluster, strategy):
        # The walltime predictor clamps an overdue job's end to the
        # present; its nodes are still held, so the head must wait.
        running = start_exclusive(
            cluster, make_job(job_id=1, nodes=6, runtime=80.0, walltime=100.0),
            list(range(6)),
        )
        head = make_job(job_id=2, nodes=8, walltime=500.0)
        ctx = make_ctx(cluster, now=50.0, running={1: running},
                       pending=[head], predicted_end=lambda job: 50.0)
        assert strategy.schedule(ctx) == []


class TestSharedFirstFit:
    def test_pairs_two_queued_jobs(self, cluster):
        pending = [
            make_job(job_id=1, nodes=2, app="AMG", shareable=True),
            make_job(job_id=2, nodes=2, app="miniMD", shareable=True),
        ]
        ctx = make_ctx(cluster, pending=pending)
        placements = SharedFirstFitStrategy().schedule(ctx)
        assert len(placements) == 2
        assert set(placements[0].node_ids) == set(placements[1].node_ids)

    def test_degenerates_to_first_fit_without_shareables(self, cluster):
        pending = [
            make_job(job_id=1, nodes=4),
            make_job(job_id=2, nodes=9),
            make_job(job_id=3, nodes=4),
        ]
        ctx = make_ctx(cluster, pending=pending)
        shared = SharedFirstFitStrategy().schedule(ctx)
        ctx2 = make_ctx(cluster, pending=pending)
        plain = FirstFitStrategy().schedule(ctx2)
        assert [(p.job.job_id, p.node_ids, p.kind) for p in shared] == [
            (p.job.job_id, p.node_ids, p.kind) for p in plain
        ]


class TestSharedBackfill:
    def test_join_backfills_past_reservation(self, cluster):
        # Cluster: 6 nodes exclusive until 100; 2 nodes hold an open
        # shared AMG job.  Head needs 8.  A long compatible joiner can
        # still start NOW via the lanes without delaying the head.
        blocker = start_exclusive(
            cluster, make_job(job_id=1, nodes=6, runtime=90.0, walltime=100.0),
            list(range(6)),
        )
        resident = start_shared(
            cluster,
            make_job(job_id=2, nodes=2, app="AMG", shareable=True,
                     runtime=400.0, walltime=500.0),
            [6, 7],
        )
        resident.effective_limit = 1000.0
        head = make_job(job_id=3, nodes=8, walltime=500.0)
        joiner = make_job(job_id=4, nodes=2, app="miniMD", shareable=True,
                          runtime=400.0, walltime=500.0)
        ctx = make_ctx(cluster, running={1: blocker, 2: resident},
                       pending=[head, joiner])
        placements = SharedBackfillStrategy().schedule(ctx)
        assert [p.job.job_id for p in placements] == [4]
        assert placements[0].kind is AllocationKind.SHARED
        assert set(placements[0].node_ids) == {6, 7}

    def test_open_shared_constrained_by_window(self, cluster):
        # A long shareable job that would OPEN idle nodes must respect
        # the extra-node budget like any other backfill.
        blocker = start_exclusive(
            cluster, make_job(job_id=1, nodes=6, runtime=90.0, walltime=100.0),
            list(range(6)),
        )
        head = make_job(job_id=2, nodes=8, walltime=500.0)
        opener = make_job(job_id=3, nodes=2, app="GTC", shareable=True,
                          runtime=300.0, walltime=400.0)
        ctx = make_ctx(cluster, running={1: blocker}, pending=[head, opener])
        placements = SharedBackfillStrategy().schedule(ctx)
        assert placements == []

    def test_reduces_to_easy_without_shareables(self, cluster):
        pending = [
            make_job(job_id=1, nodes=4, walltime=100.0),
            make_job(job_id=2, nodes=9, walltime=100.0),
            make_job(job_id=3, nodes=4, walltime=100.0),
        ]
        ctx = make_ctx(cluster, pending=pending)
        shared = SharedBackfillStrategy().schedule(ctx)
        ctx2 = make_ctx(cluster, pending=pending)
        plain = EasyBackfillStrategy().schedule(ctx2)
        assert [(p.job.job_id, p.node_ids, p.kind) for p in shared] == [
            (p.job.job_id, p.node_ids, p.kind) for p in plain
        ]

    def test_head_joins_groups_instead_of_waiting(self, cluster):
        # The whole cluster is busy, but a compatible open group of the
        # head's size exists: the shared head starts immediately.
        blocker = start_exclusive(
            cluster, make_job(job_id=1, nodes=6, runtime=90.0, walltime=100.0),
            list(range(6)),
        )
        resident = start_shared(
            cluster,
            make_job(job_id=2, nodes=2, app="AMG", shareable=True,
                     runtime=400.0, walltime=500.0),
            [6, 7],
        )
        resident.effective_limit = 1000.0
        head = make_job(job_id=3, nodes=2, app="miniMD", shareable=True,
                        walltime=300.0)
        ctx = make_ctx(cluster, running={1: blocker, 2: resident}, pending=[head])
        placements = SharedBackfillStrategy().schedule(ctx)
        assert [p.job.job_id for p in placements] == [3]
        assert placements[0].kind is AllocationKind.SHARED
