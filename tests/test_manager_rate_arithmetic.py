"""Exact-arithmetic tests of the remaining-work execution model.

These scenarios are solved by hand against the interference model and
asserted to floating-point accuracy — the strongest guard on the
simulator's core integration loop (partner arrivals/departures,
re-pairing chains, mid-flight rate changes).
"""

import pytest

from repro.cluster.machine import Cluster
from repro.interference.model import InterferenceModel
from repro.metrics.collector import MetricsCollector
from repro.metrics.validation import ValidatingCollector
from repro.miniapps.suite import TRINITY_SUITE
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import WorkloadManager
from repro.workload.trace import WorkloadTrace
from tests.conftest import make_spec

MODEL = InterferenceModel()


def speed(a: str, b: str) -> float:
    return MODEL.speed(TRINITY_SUITE[a].profile, TRINITY_SUITE[b].profile)


def run(specs, nodes=2, grace=3.0):
    cluster = Cluster.homogeneous(nodes)
    manager = WorkloadManager(
        cluster,
        config=SchedulerConfig(strategy="shared_backfill", walltime_grace=grace),
        collector=ValidatingCollector(cluster),
    )
    manager.load(WorkloadTrace(specs))
    return manager.run()


class TestPairArithmetic:
    def test_equal_pair_runtimes(self):
        # Both jobs start together, run fully paired: runtime is
        # exactly work / pair-speed for each.
        s_amg = speed("AMG", "miniDFT")
        s_dft = speed("miniDFT", "AMG")
        result = run(
            [
                make_spec(job_id=1, nodes=2, runtime=1000.0, walltime=3000.0,
                          app="AMG", shareable=True),
                make_spec(job_id=2, nodes=2, runtime=1000.0, walltime=3000.0,
                          app="miniDFT", shareable=True),
            ]
        )
        amg, dft = result.accounting.get(1), result.accounting.get(2)
        # The faster partner finishes first; compute the two phases.
        # Phase 1: both dilated until the first finishes.
        t_amg_alone = 1000.0 / s_amg
        t_dft_alone = 1000.0 / s_dft
        first_end = min(t_amg_alone, t_dft_alone)
        if t_amg_alone < t_dft_alone:
            # AMG finished at first_end; DFT did s_dft*first_end work,
            # then runs alone at speed 1.
            expected_dft = first_end + (1000.0 - s_dft * first_end)
            assert amg.run_time == pytest.approx(first_end)
            assert dft.run_time == pytest.approx(expected_dft)
        else:
            expected_amg = first_end + (1000.0 - s_amg * first_end)
            assert dft.run_time == pytest.approx(first_end)
            assert amg.run_time == pytest.approx(expected_amg)

    def test_late_joiner_two_phase_resident(self):
        # Resident runs alone for 100 s (full speed), then paired.
        s_res = speed("AMG", "miniMD")
        s_join = speed("miniMD", "AMG")
        result = run(
            [
                make_spec(job_id=1, nodes=2, runtime=500.0, walltime=2000.0,
                          app="AMG", shareable=True),
                make_spec(job_id=2, nodes=2, runtime=2000.0, walltime=4000.0,
                          app="miniMD", shareable=True, submit=100.0),
            ]
        )
        resident = result.accounting.get(1)
        joiner = result.accounting.get(2)
        # Resident: 100 s at speed 1, remainder at pair speed.
        expected_resident = 100.0 + (500.0 - 100.0) / s_res
        assert resident.run_time == pytest.approx(expected_resident)
        # Joiner: paired until the resident ends, then alone.
        paired = resident.end_time - 100.0
        expected_joiner = paired + (2000.0 - s_join * paired)
        assert joiner.run_time == pytest.approx(expected_joiner)
        # Shared-interval accounting matches the overlap exactly.
        assert resident.shared_seconds == pytest.approx(paired)
        assert joiner.shared_seconds == pytest.approx(paired)

    def test_repairing_chain_three_jobs(self):
        # Resident pairs with a short joiner, runs alone, then pairs
        # with a second joiner: three speed phases, solved by hand.
        s_res_md = speed("AMG", "miniMD")
        s_md = speed("miniMD", "AMG")
        result = run(
            [
                make_spec(job_id=1, nodes=2, runtime=6000.0, walltime=12000.0,
                          app="AMG", shareable=True),
                make_spec(job_id=2, nodes=2, runtime=200.0, walltime=600.0,
                          app="miniMD", shareable=True, submit=0.0),
                make_spec(job_id=3, nodes=2, runtime=200.0, walltime=600.0,
                          app="miniMD", shareable=True, submit=4000.0),
            ],
            grace=4.0,
        )
        first = result.accounting.get(2)
        second = result.accounting.get(3)
        resident = result.accounting.get(1)
        # Joiner 1: fully paired from t=0.
        t1 = 200.0 / s_md
        assert first.run_time == pytest.approx(t1)
        # Joiner 2 pairs with the resident at t=4000 (still running).
        assert second.start_time == pytest.approx(4000.0)
        t2 = 200.0 / s_md
        assert second.run_time == pytest.approx(t2)
        # Resident work: paired t1, alone until 4000, paired t2, alone.
        work = s_res_md * t1 + (4000.0 - t1) + s_res_md * t2
        expected_end = 4000.0 + t2 + (6000.0 - work)
        assert resident.end_time == pytest.approx(expected_end)
        assert resident.shared_seconds == pytest.approx(t1 + t2)
        assert resident.dilation > 1.0


class TestWalltimeUnderSharing:
    def test_dilation_guard_refuses_unsafe_pair(self):
        # GTC+GTC co-run speed (~0.82) is below 1/grace for grace 1.2,
        # so the pairing policy must refuse the pair outright: the
        # jobs run sequentially on the 2-node cluster, undilated, and
        # nothing is ever walltime-killed for scheduler-induced
        # slowdown.
        s = speed("GTC", "GTC")
        assert s < 1.0 / 1.2  # precondition of this scenario
        result = run(
            [
                make_spec(job_id=1, nodes=2, runtime=1000.0, walltime=1010.0,
                          app="GTC", shareable=True),
                make_spec(job_id=2, nodes=2, runtime=1000.0, walltime=1010.0,
                          app="GTC", shareable=True),
            ],
            grace=1.2,
        )
        for job_id in (1, 2):
            record = result.accounting.get(job_id)
            assert record.state.name == "COMPLETED"
            assert record.dilation == pytest.approx(1.0)
            assert not record.was_shared
        # Sequential: the second starts when the first ends.
        assert result.accounting.get(2).start_time == pytest.approx(
            result.accounting.get(1).end_time
        )

    def test_same_pair_accepted_with_generous_grace(self):
        # With grace 2.0 the same pair qualifies and both dilate.
        result = run(
            [
                make_spec(job_id=1, nodes=2, runtime=1000.0, walltime=1100.0,
                          app="GTC", shareable=True),
                make_spec(job_id=2, nodes=2, runtime=1000.0, walltime=1100.0,
                          app="GTC", shareable=True),
            ],
            grace=2.0,
        )
        s = speed("GTC", "GTC")
        first = result.accounting.get(1)
        assert first.state.name == "COMPLETED"
        assert first.was_shared
        assert first.run_time == pytest.approx(1000.0 / s)


class TestKeptWorkRate:
    def test_rate_refresh_invalidates_the_kept_work_rate(self):
        # The collector reuses its last work-rate sum until the running
        # set or a running job's rate changes; a refresh that changes a
        # rate must make the next sample sum afresh.
        cluster = Cluster.homogeneous(4)
        manager = WorkloadManager(
            cluster,
            config=SchedulerConfig(strategy="shared_backfill"),
            collector=MetricsCollector(cluster),
        )
        manager.load(WorkloadTrace([
            make_spec(job_id=1, nodes=2, runtime=1000.0, walltime=3000.0,
                      app="AMG"),
            make_spec(job_id=2, nodes=2, runtime=1000.0, walltime=3000.0,
                      app="miniDFT"),
        ]))
        manager.run(until=100.0)
        collector, job = manager.collector, manager.jobs[1]
        assert job.is_running and collector.work_rates[-1] == 4.0
        collector.on_sample(manager.sim.now, manager)
        assert collector.work_rates[-1] == 4.0
        job.checkpoint_tau, job.checkpoint_overhead = 300.0, 100.0
        manager._refresh_rate(job)
        assert job.rate == 0.75
        collector.on_sample(manager.sim.now, manager)
        assert collector.work_rates[-1] == 3.5
