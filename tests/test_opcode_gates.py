"""Cost gates on deterministic bytecode and call counts
(:mod:`tests.opcodes`).

Starting and freeing a job does per-node work only on each node's lane
and mode; every index, co-runner map and counter changes once per job
or once per resident.  So the cluster layer's cost grows far slower
than the job: a 64-node job may cost at most ``MAX_RATIO`` times a
1-node job.  A walk that updates the indexes node by node costs about
25 times as much, and fails the gate.

Telemetry only records what the scheduler decides: an armed run calls
every scheduling function as often as a disarmed one, and an e3 run
under ``--telemetry --profile`` costs at most ``MAX_ARMED_RATIO`` times
the disarmed opcodes (DESIGN.md section 7).
"""

from __future__ import annotations

import os
import sys
from types import CodeType

import numpy as np
import pytest

from repro.analysis.experiments import EVAL_JOBS, EVAL_NODES, default_campaign
from repro.cluster.machine import Cluster
from repro.core import placement
from repro.core.strategy import all_strategy_names
from repro.observability import TelemetryConfig
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import build_manager
from repro.workload.trace import WorkloadTrace
from repro.workload.trinity import TrinityWorkloadGenerator
from tests.opcodes import counting_calls, counting_opcodes, opcodes_in

#: Cluster-layer opcodes to start and free a 64-node job over those for
#: a 1-node job.  About 5 (exclusive) and 3 (a join) on CPython 3.11.
MAX_RATIO = 8.0
CLUSTER_LAYER = f"{os.sep}cluster{os.sep}"

#: Opcodes of an e3 run under ``--telemetry --profile`` over those of
#: the same run disarmed.  About 1.14 on CPython 3.10-3.12.
MAX_ARMED_RATIO = 1.15
CORE_LAYER = f"{os.sep}repro{os.sep}core{os.sep}"
ARMED = TelemetryConfig(enabled=True, profile=True)


def start_and_free(size: int, join: bool) -> int:
    """Cluster-layer opcodes to allocate and release a *size*-node job,
    exclusively or joining a resident on the same nodes."""
    cluster = Cluster.homogeneous(128)
    if join:
        cluster.allocate(cluster.build_shared(1, range(size)))
    build = cluster.build_shared if join else cluster.build_exclusive
    with counting_opcodes() as counts:
        granted = cluster.allocate(build(2, range(size)))
        cluster.release(2)
    assert granted.is_shared is join
    cluster.check_indexes()
    return opcodes_in(counts, CLUSTER_LAYER)


@pytest.mark.parametrize("join", [False, True], ids=["exclusive", "join"])
def test_start_and_free_cost_barely_grows_with_nodes(join):
    one, wide = start_and_free(1, join), start_and_free(64, join)
    assert start_and_free(64, join) == wide, "counts must be deterministic"
    assert wide / one <= MAX_RATIO, (one, wide)


def test_counting_restores_the_previous_tracer():
    def tracer(frame, event, arg):
        return None

    def work():
        return sum(range(3))

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        with counting_opcodes() as counts:
            work()
        assert sys.gettrace() is tracer
    finally:
        sys.settrace(previous)
    assert counts[work.__code__] > 0


def _record_builders() -> set[CodeType]:
    """Core code that runs only to build a decision record: the reject
    helper, and the comprehension listing an accept's residents (no
    code object of its own where comprehensions are inlined)."""
    return {placement._reject.__code__} | {
        const for const in placement.place_join.__code__.co_consts
        if isinstance(const, CodeType) and "job_id" in const.co_names
    }


def _run(trace: WorkloadTrace, nodes: int, strategy: str,
         telemetry: TelemetryConfig | None):
    config = SchedulerConfig(strategy=strategy)
    if telemetry is not None:
        config.telemetry = telemetry
    return build_manager(
        trace, num_nodes=nodes, strategy=strategy, config=config
    ).run()


def core_calls(trace: WorkloadTrace, strategy: str,
               telemetry: TelemetryConfig | None) -> dict[str, int]:
    """Calls of each core-layer function in one run on 16 nodes, less
    the record builders."""
    skip = _record_builders()
    with counting_calls() as counts:
        _run(trace, 16, strategy, telemetry)
    return {
        f"{code.co_name}:{code.co_firstlineno}": n
        for code, n in counts.items()
        if CORE_LAYER in code.co_filename and code not in skip
    }


@pytest.mark.parametrize("strategy", all_strategy_names())
def test_armed_runs_take_the_disarmed_path(strategy):
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.85, offered_load=1.5
    ).generate(60, 16, np.random.default_rng(7))
    _run(trace, 16, strategy, None)
    disarmed = core_calls(trace, strategy, None)
    armed = core_calls(trace, strategy, ARMED)
    differ = {
        name: (disarmed.get(name, 0), armed.get(name, 0))
        for name in disarmed.keys() | armed.keys()
        if disarmed.get(name, 0) != armed.get(name, 0)
    }
    assert not differ, f"(disarmed, armed) calls differ: {differ}"


def test_armed_e3_opcodes_within_budget():
    trace = default_campaign(num_jobs=EVAL_JOBS, cluster_nodes=EVAL_NODES)
    _run(trace, EVAL_NODES, "shared_backfill", ARMED)

    def opcodes(telemetry: TelemetryConfig | None) -> int:
        with counting_opcodes() as counts:
            _run(trace, EVAL_NODES, "shared_backfill", telemetry)
        return sum(counts.values())

    disarmed = opcodes(None)
    profiled = opcodes(ARMED) / disarmed
    if profiled > MAX_ARMED_RATIO:
        traced = opcodes(TelemetryConfig(enabled=True)) / disarmed
        pytest.fail(
            f"--telemetry --profile costs {profiled:.3f}x the disarmed "
            f"opcodes (bound {MAX_ARMED_RATIO}); --telemetry {traced:.3f}x"
        )
