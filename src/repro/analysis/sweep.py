"""Generic strategy-comparison and parameter-sweep helpers.

Sweep-style experiments route their per-point simulations through
:func:`run_params_many`, which executes declarative run-parameter
dicts (see :mod:`repro.campaign.spec`) on the campaign runner — in
process for ``workers=1``, fanned out over a process pool otherwise.
Both paths execute the identical entry function, so parallelising a
sweep never changes its numbers.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

from repro.errors import CampaignError
from repro.metrics.summary import ScheduleSummary, summarize
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import SimulationResult, run_simulation
from repro.workload.trace import WorkloadTrace


def run_one(
    trace: WorkloadTrace,
    strategy: str,
    num_nodes: int,
    config: SchedulerConfig | None = None,
) -> SimulationResult:
    """Simulate *trace* under one strategy with metrics collection."""
    if config is None:
        config = SchedulerConfig(strategy=strategy)
    elif config.strategy != strategy:
        config = replace(config, strategy=strategy)
    return run_simulation(
        trace, num_nodes=num_nodes, strategy=strategy, config=config
    )


def compare_strategies(
    trace: WorkloadTrace,
    strategies: Sequence[str],
    num_nodes: int,
    config: SchedulerConfig | None = None,
) -> tuple[list[SimulationResult], list[ScheduleSummary]]:
    """Run the same trace under each strategy; returns results and
    summaries in the given strategy order."""
    results = [run_one(trace, s, num_nodes, config) for s in strategies]
    return results, [summarize(r) for r in results]


def run_params_many(
    params_list: Sequence[Mapping[str, object]],
    workers: int = 1,
    store: "object | None" = None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.5,
    progress: "object | None" = None,
) -> list[dict[str, object]]:
    """Execute declarative run params, one result payload per input.

    Duplicate params execute once and share their payload.  Raises
    :class:`~repro.errors.CampaignError` if any run exhausts its
    retries, since a sweep with holes cannot be tabulated.
    """
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import RunSpec

    runs = [RunSpec.from_params(p) for p in params_list]
    unique: dict[str, RunSpec] = {}
    for run in runs:
        unique.setdefault(run.run_id, run)
    runner = CampaignRunner(
        store=store,  # type: ignore[arg-type]
        workers=workers,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        progress=progress,  # type: ignore[arg-type]
    )
    outcome = runner.run(list(unique.values()))
    if not outcome.ok:
        first = outcome.failures[0]
        raise CampaignError(
            f"{outcome.failed} of {len(unique)} sweep runs failed; "
            f"first: {first.label or first.run_id} — {first.error}"
        )
    return [
        outcome.results[run.run_id]["result"]  # type: ignore[index]
        for run in runs
    ]

