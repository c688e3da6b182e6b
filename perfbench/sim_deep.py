"""sim-deep: engine-bound simulations with a deep pending queue.

Each of ``TRACES`` Trinity-campaign traces (seeds derived from the
workload seed) offers ``JOBS`` jobs at 1.5x the capacity of 128 nodes
and is scheduled by ``shared_backfill`` through
``build_manager(...).run()``.  The queue grows through each run, so
the scheduler pass (ordering, availability view, placement) does most
of the work; storage, campaign and service code do none.  Queue depth,
and with it cost, varies by about a fifth from trace to trace, so many
traces per run keep the figure close from seed to seed; each trace's
``run()`` is one timing unit.
"""

from __future__ import annotations

import time
from pathlib import Path

from harness import Rep, fastest_setup, paced, sha256_hex
from layers import tracing
from repro.analysis.experiments import default_campaign
from repro.archive.columnar import job_records_to_array
from repro.slurm.manager import build_manager

NAME = "sim-deep"
TRACES = 16
JOBS = 200
NODES = 128
LOAD = 1.5
STRATEGY = "shared_backfill"
SCALE = {"jobs": TRACES * JOBS, "nodes": NODES, "windows": 0,
         "runs": TRACES, "submissions": 0}
#: Span whose time the traced layers must account for.
ROOT_SPAN = "engine.run"


def trace_seeds(seed: int) -> list[int]:
    return [seed * TRACES + k for k in range(TRACES)]


def build(trace_seed: int):
    trace = default_campaign(
        num_jobs=JOBS, cluster_nodes=NODES, offered_load=LOAD, seed=trace_seed
    )
    return build_manager(trace, num_nodes=NODES, strategy=STRATEGY)


def digest(results) -> str:
    """SHA-256 of every run's accounting records, packed as columnar
    rows, in trace order."""
    return sha256_hex(*(
        job_records_to_array(list(result.accounting)).tobytes()
        for result in results
    ))


def golden_digest(work: Path, seed: int) -> str:
    return digest([build(s).run() for s in trace_seeds(seed)])


def rep(work: Path, seed: int, index: int, tracer=None) -> Rep:
    # Each trace is built right before it runs, so that its set-up and
    # its run are timing units spread over the repetition.  Managers
    # are built inside the traced block so that the event handlers they
    # register with the engine are the traced ones.
    results, setups, units = [], [], []
    with tracing(tracer):
        for trace_seed in trace_seeds(seed):
            manager, setup_s = fastest_setup(
                lambda _: paced(lambda: build(trace_seed), time.thread_time),
                lambda _: None,
            )
            result, took = paced(manager.run)
            results.append(result)
            setups.append(setup_s)
            units.append(took)
    accounted = sum(len(result.accounting) for result in results)
    return Rep(
        setups=setups,
        units=units,
        jobs=sum(result.completed_jobs for result in results),
        digest=digest(results),
        attempted=TRACES,
        checks=[(accounted == TRACES * JOBS,
                 f"{accounted} of {TRACES * JOBS} jobs accounted")],
        notes=[
            f"engine: {sum(r.events_dispatched for r in results)} events, "
            f"{sum(r.scheduler_passes for r in results)} passes, "
            f"{sum(r.placements_applied for r in results)} placements"
        ],
    )
