"""Randomised full-simulation property tests.

Any workload through any strategy must satisfy the structural
invariants of :class:`~repro.metrics.validation.ValidatingCollector`
at every state change, conserve work exactly, and terminate.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.machine import Cluster
from repro.core.strategy import all_strategy_names, make_strategy
from repro.metrics.validation import ValidatingCollector
from repro.slurm.config import SchedulerConfig
from repro.slurm.job import JobState
from repro.slurm.manager import WorkloadManager
from repro.workload.trinity import TrinityWorkloadGenerator

STRATEGIES = all_strategy_names()


def run_validated(seed: int, strategy: str, num_jobs: int, nodes: int = 12,
                  share_fraction: float = 0.8):
    rng = np.random.default_rng(seed)
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False,
        share_fraction=share_fraction,
        offered_load=1.4,
    ).generate(num_jobs, nodes, rng)
    cluster = Cluster.homogeneous(nodes)
    collector = ValidatingCollector(cluster)
    manager = WorkloadManager(
        cluster,
        config=SchedulerConfig(strategy=strategy),
        strategy=make_strategy(strategy),
        collector=collector,
    )
    manager.load(trace)
    result = manager.run()
    return trace, result, collector


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    strategy=st.sampled_from(STRATEGIES),
    num_jobs=st.integers(5, 40),
    share_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_random_simulations_hold_invariants(seed, strategy, num_jobs,
                                            share_fraction):
    trace, result, collector = run_validated(
        seed, strategy, num_jobs, share_fraction=share_fraction
    )
    assert collector.checks > 0
    # Everything terminates and is accounted for.
    assert len(result.accounting) == len(trace)
    # Exact work conservation (no timeouts on this workload: walltime
    # requests overestimate runtimes and pairing respects the grace).
    expected = sum(j.num_nodes * j.runtime_exclusive for j in trace)
    measured = result.accounting.total_useful_node_seconds()
    assert measured == pytest.approx(expected, rel=1e-9)
    # The cluster is empty at the end.
    assert collector.cluster.num_idle() == collector.cluster.num_nodes


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    num_jobs=st.integers(20, 40),
    share_fraction=st.floats(min_value=0.5, max_value=1.0),
)
def test_kept_engine_state_matches_a_rebuild(strategy, seed, num_jobs,
                                             share_fraction):
    # The validating collector compares the kept running-job map,
    # resident groups and work rate with a rebuild at every sample,
    # and the lazily written priorities with an eager write-back at
    # every start.
    _, result, collector = run_validated(
        seed, strategy, num_jobs, share_fraction=share_fraction
    )
    assert collector.checks > 0
    assert collector.priority_checks == result.placements_applied > 0


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_shared_backfill_with_cancellations_holds_invariants(seed):
    rng = np.random.default_rng(seed)
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.9, offered_load=1.5
    ).generate(25, 12, rng)
    cluster = Cluster.homogeneous(12)
    collector = ValidatingCollector(cluster)
    manager = WorkloadManager(
        cluster,
        config=SchedulerConfig(strategy="shared_backfill"),
        collector=collector,
    )
    manager.load(trace)
    # Cancel a third of the jobs at staggered times.
    cancel_rng = np.random.default_rng(seed + 1)
    for job in list(trace)[::3]:
        at = float(job.submit_time + cancel_rng.uniform(0, 2 * job.walltime_req))
        manager.cancel_job(job.job_id, at=at)
    result = manager.run()
    assert len(result.accounting) == len(trace)
    cancelled = [r for r in result.accounting if r.state is JobState.CANCELLED]
    # At least some cancellations landed before completion.
    assert collector.cluster.num_idle() == 12
    assert all(r.work_done <= r.runtime_exclusive + 1e-9 for r in result.accounting)


def test_validating_collector_passes_on_reference_run():
    _, result, collector = run_validated(7, "shared_backfill", 40)
    assert result.completed_jobs == 40
    assert collector.checks >= 80  # sampled at every state change
