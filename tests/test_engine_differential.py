"""Differential test: the indexed engine against the scan-based reference.

Both engines run the same random workload; the reference answers every
occupancy and co-runner query by walking the nodes, reserves against
release times scanned from the running jobs, scores every pending job
from scratch and sorts with a key function, runs every placement probe
in full and recomputes every interference prediction
(:mod:`tests.reference_engine`).  At every scheduler pass the two must
return the identical placement list, and at the end the identical
accounting records, metrics series, stored job priorities (bit for
bit) and co-runner sets (in iteration order, which a snapshot
pickles).  The scenarios arm everything that moves the engine's
indexes and caches: node and rack failures with flaky-node
blacklisting (the placement's ``avoid_nodes``) and requeue priority
backoff, topology-aware selection, memory-constrained joins on nodes
of mixed memory, time-sliced sharing, and walltime prediction (whose
passes scan in both engines).  A failure-free, deep, all-shareable
scenario makes most starts joins and most ends releases beside a
co-runner, and checks every index after every event.

The same scenario space carries a causality property: a job that
arrives after the last finish changes no earlier accounting record.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.archive.columnar import job_records_to_array
from repro.cluster.machine import Cluster
from repro.cluster.node import Node
from repro.core import placement
from repro.core.strategy import all_strategy_names, make_strategy
from repro.metrics.validation import ValidatingCollector
from repro.resilience.config import ResilienceConfig
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import WorkloadManager
from repro.workload.trace import WorkloadTrace
from repro.workload.trinity import TrinityWorkloadGenerator
from tests.reference_engine import (
    ReferenceCluster,
    ReferenceCollector,
    ReferenceManager,
    ReferencePriority,
    reference_views,
)

STRATEGIES = all_strategy_names()
SERIES = ("times", "busy_nodes", "shared_nodes", "queue_lengths", "work_rates")


@dataclass(frozen=True)
class Scenario:
    seed: int
    strategy: str
    num_jobs: int = 30
    nodes: int = 12
    share_fraction: float = 0.8
    failures: bool = False
    topology_aware: bool = False
    memory_constrained: bool = False
    time_sliced: bool = False
    predicted: bool = False
    #: Priority points per requeue (with failures armed).
    requeue_backoff: float = 0.0
    offered_load: float = 1.5
    #: Check every index against a full scan after every event.
    checked: bool = False


def _cluster(scenario: Scenario, cls: type[Cluster] = Cluster) -> Cluster:
    # Memory-constrained, each rack of four nodes has one size, taken in
    # turn from a seed-dependent start: a group within a rack that is
    # not of the smallest size sits above the cluster minimum, and a
    # group across racks is as small as its smallest rack.
    sizes = (128_000, 96_000, 64_000) if scenario.memory_constrained else (128_000,)
    return cls(
        Node(
            node_id=i,
            memory_mb=sizes[(scenario.seed + i // 4) % len(sizes)],
            rack=i // 4,
        )
        for i in range(scenario.nodes)
    )


def _config(scenario: Scenario) -> SchedulerConfig:
    config = SchedulerConfig(strategy=scenario.strategy)
    if scenario.topology_aware:
        config.topology_aware = True
        config.rack_comm_penalty = 0.2
    if scenario.time_sliced:
        # Loose enough that time-sliced pairs qualify at all.
        config.sharing_mode = "time_sliced"
        config.share_threshold = 0.9
        config.walltime_grace = 2.5
    if scenario.predicted:
        config.use_walltime_prediction = True
    return config


def scenario_trace(scenario: Scenario) -> WorkloadTrace:
    return TrinityWorkloadGenerator(
        share_obeys_app=False,
        share_fraction=scenario.share_fraction,
        offered_load=scenario.offered_load,
    ).generate(scenario.num_jobs, scenario.nodes,
               np.random.default_rng(scenario.seed))


def run_engine(scenario: Scenario, reference: bool,
               trace: WorkloadTrace | None = None):
    """Run *scenario* (on *trace* instead of its own, if given);
    returns (manager, result, per-pass ``(pending job ids in order,
    placements)``, whether each pass reserved against release
    bounds)."""
    if trace is None:
        trace = scenario_trace(scenario)
    cluster = _cluster(scenario, ReferenceCluster if reference else Cluster)
    manager_cls = ReferenceManager if reference else WorkloadManager
    collector_cls = ReferenceCollector if reference else ValidatingCollector
    manager = manager_cls(
        cluster,
        config=_config(scenario),
        strategy=make_strategy(scenario.strategy),
        collector=collector_cls(cluster),
    )
    manager.load(trace)
    if scenario.failures:
        manager.enable_resilience(ResilienceConfig(
            node_mtbf_hours=40.0,
            rack_mtbf_hours=60.0,
            repair_hours=1.0,
            max_requeues=2,
            requeue_priority_backoff=scenario.requeue_backoff,
            blacklist_failures=2,
            blacklist_window_hours=12.0,
            seed=scenario.seed,
        ))
    passes: list[list[tuple]] = []
    indexed: list[bool] = []
    schedule = manager.strategy.schedule

    def recording_schedule(ctx):
        indexed.append(ctx.release_bounds is not None)
        placements = schedule(ctx)
        passes.append((
            [job.job_id for job in ctx.pending],
            [(p.job.job_id, p.node_ids, p.kind) for p in placements],
        ))
        return placements

    manager.strategy.schedule = recording_schedule
    if scenario.checked:
        step = manager.sim.step

        def checked_step(handlers):
            event = step(handlers)
            manager.check_indexes()
            return event

        manager.sim.step = checked_step
    if reference:
        with reference_views():
            result = manager.run()
    else:
        result = manager.run()
    return manager, result, passes, indexed


def assert_engines_agree(scenario: Scenario):
    ref_manager, ref, ref_passes, ref_indexed = run_engine(
        scenario, reference=True
    )
    manager, result, passes, indexed = run_engine(scenario, reference=False)
    assert type(ref_manager.priority) is ReferencePriority
    assert ref_manager.queue.priority is ref_manager.priority
    # Every pass has a non-empty queue, and the reference scored each
    # one from scratch: its orders are exactly the passes' queues.
    assert ref_passes
    assert ref_manager.priority.orders == [
        pending for pending, _ in ref_passes
    ]
    # The reference always scans; the indexed engine scans exactly
    # when the walltime predictor moves the predicted ends.
    assert not any(ref_indexed)
    assert indexed == [not scenario.predicted] * len(indexed)
    for index, (expected, actual) in enumerate(zip(ref_passes, passes)):
        assert actual == expected, f"pass {index} ordered or placed differently"
    assert len(passes) == len(ref_passes)
    assert list(result.accounting) == list(ref.accounting)
    for name in SERIES:
        assert getattr(manager.collector, name) == getattr(
            ref_manager.collector, name
        ), name
    assert [list(job.corun_job_ids) for job in manager.jobs.values()] == [
        list(job.corun_job_ids) for job in ref_manager.jobs.values()
    ]
    assert [job.priority.hex() for job in manager.jobs.values()] == [
        job.priority.hex() for job in ref_manager.jobs.values()
    ]
    manager.check_indexes()
    return manager


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    strategy=st.sampled_from(STRATEGIES),
    num_jobs=st.integers(5, 40),
    share_fraction=st.floats(min_value=0.0, max_value=1.0),
    failures=st.booleans(),
    topology_aware=st.booleans(),
    memory_constrained=st.booleans(),
    time_sliced=st.booleans(),
    predicted=st.booleans(),
    requeue_backoff=st.sampled_from([0.0, 150.0, 2000.0]),
)
def test_indexed_engine_matches_reference(seed, strategy, num_jobs,
                                          share_fraction, failures,
                                          topology_aware, memory_constrained,
                                          time_sliced, predicted,
                                          requeue_backoff):
    assert_engines_agree(Scenario(
        seed=seed, strategy=strategy, num_jobs=num_jobs,
        share_fraction=share_fraction, failures=failures,
        topology_aware=topology_aware, memory_constrained=memory_constrained,
        time_sliced=time_sliced, predicted=predicted,
        requeue_backoff=requeue_backoff,
    ))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_feature_armed_matches_reference(strategy):
    manager = assert_engines_agree(Scenario(
        seed=11, strategy=strategy, num_jobs=40, share_fraction=0.9,
        failures=True, topology_aware=True, memory_constrained=True,
    ))
    assert manager.failures_injected > 0


@pytest.mark.parametrize("strategy", ["shared_backfill", "easy_backfill"])
def test_failure_injection_matches_reference(strategy):
    manager = assert_engines_agree(Scenario(
        seed=3, strategy=strategy, num_jobs=50, nodes=16, share_fraction=0.9,
        failures=True,
    ))
    assert manager.failures_injected > 0
    assert manager.rack_failures_injected > 0
    assert manager.jobs_requeued > 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_requeue_backoff_matches_reference(strategy):
    manager = assert_engines_agree(Scenario(
        seed=3, strategy=strategy, num_jobs=50, nodes=16, share_fraction=0.9,
        failures=True, requeue_backoff=400.0,
    ))
    assert manager.jobs_requeued > 0


#: The four backfill strategies.
BACKFILL_STRATEGIES = (
    "easy_backfill", "conservative", "shared_backfill", "shared_conservative",
)


@pytest.mark.parametrize("strategy", BACKFILL_STRATEGIES)
def test_deep_queue_matches_reference(strategy):
    # A queue tens of jobs deep under failures, requeue backoff and
    # drains: the kept priority terms see many adds, removes (starts
    # and cancellations), requeues and fairshare charges between
    # passes.
    manager = assert_engines_agree(Scenario(
        seed=0, strategy=strategy, num_jobs=360, nodes=16,
        share_fraction=0.9, failures=True, requeue_backoff=150.0,
        offered_load=8.0,
    ))
    assert manager.jobs_requeued >= 20
    assert max(manager.collector.queue_lengths) >= 40


#: The sharing strategies, and shared backfill under time-sliced
#: sharing.
JOIN_CASES = (
    ("shared_first_fit", False),
    ("shared_backfill", False),
    ("shared_conservative", False),
    ("shared_backfill", True),
)


@pytest.mark.parametrize("strategy, time_sliced", JOIN_CASES)
def test_mostly_joins_matches_reference(strategy, time_sliced, monkeypatch):
    # No failures, a queue over a hundred jobs deep and every job
    # shareable: most starts join resident groups, and most ends free
    # lanes beside a co-runner, some on only part of the job's nodes.
    # Both engines check every index against a scan after every event.
    grants = {"join": 0, "release_beside": 0, "release_partial": 0}
    allocate, release = Cluster.allocate, Cluster.release

    def counting_allocate(self, allocation):
        granted = allocate(self, allocation)
        grants["join"] += bool(self._co_runners.get(allocation.job_id))
        return granted

    def counting_release(self, job_id):
        size = self.allocation_of(job_id).num_nodes
        left = release(self, job_id)
        grants["release_beside"] += bool(left)
        grants["release_partial"] += 0 < sum(map(len, left.values())) < size
        return left

    monkeypatch.setattr(Cluster, "allocate", counting_allocate)
    monkeypatch.setattr(Cluster, "release", counting_release)
    manager = assert_engines_agree(Scenario(
        seed=1, strategy=strategy, num_jobs=300, nodes=32,
        share_fraction=1.0, offered_load=6.0, time_sliced=time_sliced,
        checked=True,
    ))
    assert max(manager.collector.queue_lengths) >= 100
    # Counted over both engines' runs.
    assert grants["join"] >= 400
    assert grants["release_beside"] >= 400
    assert grants["release_partial"] >= 4


def memory_scenario(strategy: str) -> Scenario:
    """A queue deep enough that joins are weighed against node memory,
    on racks of three memory sizes."""
    return Scenario(
        seed=0, strategy=strategy, num_jobs=80, nodes=16,
        share_fraction=0.9, memory_constrained=True, offered_load=3.0,
    )


@pytest.mark.parametrize(
    "strategy", ["shared_first_fit", "shared_backfill", "shared_conservative"]
)
def test_memory_constrained_joins_match_reference(strategy, monkeypatch):
    # Some joins must fit a group's own smallest memory and not the
    # cluster's, so that a group read at the cluster minimum places
    # differently.
    fits = placement._memory_fits
    above_minimum = 0

    def counting_fits(job, group):
        nonlocal above_minimum
        need = job.spec.memory_mb_per_node + group.job.spec.memory_mb_per_node
        above_minimum += 64_000 < need <= group.min_memory_mb
        return fits(job, group)

    monkeypatch.setattr(placement, "_memory_fits", counting_fits)
    assert_engines_agree(memory_scenario(strategy))
    assert above_minimum > 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_walltime_prediction_matches_reference(strategy):
    assert_engines_agree(Scenario(
        seed=5, strategy=strategy, num_jobs=40, share_fraction=0.9,
        failures=True, memory_constrained=True, predicted=True,
    ))


#: Each sharing strategy and the exclusive strategy it extends.
EXCLUSIVE_TWINS = (
    ("shared_first_fit", "first_fit"),
    ("shared_backfill", "easy_backfill"),
    ("shared_conservative", "conservative"),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    twins=st.sampled_from(EXCLUSIVE_TWINS),
    num_jobs=st.integers(5, 40),
    failures=st.booleans(),
    topology_aware=st.booleans(),
    memory_constrained=st.booleans(),
    time_sliced=st.booleans(),
    predicted=st.booleans(),
)
def test_nothing_shareable_schedules_like_the_exclusive_twin(
        seed, twins, num_jobs, failures, topology_aware, memory_constrained,
        time_sliced, predicted):
    # Metamorphic relation: with share fraction 0 no job may share a
    # node, so a sharing strategy must place, run and account every
    # job exactly as the exclusive strategy it extends.
    runs = []
    for strategy in twins:
        _, result, _, _ = run_engine(Scenario(
            seed=seed, strategy=strategy, num_jobs=num_jobs,
            share_fraction=0.0, failures=failures,
            topology_aware=topology_aware,
            memory_constrained=memory_constrained,
            time_sliced=time_sliced, predicted=predicted,
        ), reference=False)
        records = list(result.accounting)
        assert not any(record.was_shared for record in records)
        runs.append((records, job_records_to_array(records).tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    num_jobs=st.integers(5, 30),
    share_fraction=st.floats(min_value=0.0, max_value=1.0),
    failures=st.booleans(),
    topology_aware=st.booleans(),
    memory_constrained=st.booleans(),
    time_sliced=st.booleans(),
    predicted=st.booleans(),
    requeue_backoff=st.sampled_from([0.0, 150.0]),
    pick=st.integers(0, 10_000),
    gap=st.floats(min_value=1e-3, max_value=1e5),
)
def test_a_later_arrival_changes_no_earlier_record(
        strategy, seed, num_jobs, share_fraction, failures, topology_aware,
        memory_constrained, time_sliced, predicted, requeue_backoff, pick,
        gap):
    # Causality: the engine may not let a job that arrives after the
    # last finish reach back and change any record written before it.
    scenario = Scenario(
        seed=seed, strategy=strategy, num_jobs=num_jobs,
        share_fraction=share_fraction, failures=failures,
        topology_aware=topology_aware, memory_constrained=memory_constrained,
        time_sliced=time_sliced, predicted=predicted,
        requeue_backoff=requeue_backoff,
    )
    trace = scenario_trace(scenario)
    _, result, _, _ = run_engine(scenario, reference=False, trace=trace)
    records = list(result.accounting)
    last_finish = max(record.end_time for record in records)
    late = trace[pick % len(trace)].with_(
        job_id=max(spec.job_id for spec in trace) + 1,
        submit_time=last_finish + gap,
        depends_on=-1,
    )
    extended = WorkloadTrace([*trace, late], name=trace.name)
    _, later, _, _ = run_engine(scenario, reference=False, trace=extended)
    later_records = list(later.accounting)
    assert [record.job_id for record in later_records] == [
        record.job_id for record in records
    ] + [late.job_id]
    assert job_records_to_array(later_records[:-1]).tobytes() == (
        job_records_to_array(records).tobytes()
    )
