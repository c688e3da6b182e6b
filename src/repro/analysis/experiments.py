"""Per-experiment drivers reproducing every table and figure.

Each ``eN_*`` function runs the experiment and returns structured data
plus a printable report.  The canonical evaluation workload (the
"Trinity campaign") is shared by E3–E6 so all headline artefacts come
from the same trace, as in the paper.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.analysis.sweep import compare_strategies, run_one, run_params_many
from repro.campaign.spec import (
    campaign_workload,
    inline_workload,
    simulate_params,
)
from repro.core.strategy import all_strategy_names
from repro.interference.matrix import PairingMatrix
from repro.interference.model import InterferenceModel, ModelParams
from repro.metrics.report import format_comparison, format_table
from repro.metrics.summary import summarize, wait_by_size_class
from repro.miniapps.scaling import strong_scaling_efficiency
from repro.miniapps.suite import TRINITY_SUITE, suite_profiles
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import run_simulation
from repro.workload.spec import JobSpec
from repro.workload.swf import read_swf, read_swf_header_apps, write_swf
from repro.workload.trace import WorkloadTrace
from repro.workload.trinity import TrinityWorkloadGenerator

#: Evaluation defaults (see EXPERIMENTS.md "setup").
EVAL_NODES = 128
EVAL_JOBS = 400
EVAL_SEED = 7
EVAL_LOAD = 1.5
EVAL_SHARE_FRACTION = 0.85
BASELINE = "easy_backfill"
SHARED_STRATEGIES = ("shared_first_fit", "shared_backfill")


def default_campaign(
    num_jobs: int = EVAL_JOBS,
    cluster_nodes: int = EVAL_NODES,
    seed: int = EVAL_SEED,
    offered_load: float = EVAL_LOAD,
    share_fraction: float = EVAL_SHARE_FRACTION,
) -> WorkloadTrace:
    """The canonical Trinity-campaign workload of the evaluation."""
    rng = np.random.default_rng(seed)
    generator = TrinityWorkloadGenerator(
        share_obeys_app=False,
        share_fraction=share_fraction,
        offered_load=offered_load,
    )
    return generator.generate(num_jobs, cluster_nodes, rng, name="trinity-eval")


@dataclass
class ExperimentOutput:
    """Uniform return type: data rows plus a printable report."""

    experiment: str
    rows: list[dict[str, object]] = field(default_factory=list)
    text: str = ""
    extras: dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


# ----------------------------------------------------------------------
# E1 — Table I: mini-app characterisation
# ----------------------------------------------------------------------
def e1_miniapp_table() -> ExperimentOutput:
    """Resource profiles and scaling behaviour of the suite."""
    rows = []
    for app in TRINITY_SUITE.values():
        p = app.profile
        rows.append(
            {
                "app": app.name,
                "core": p.core_demand,
                "membw": p.membw_demand,
                "cache": p.cache_footprint,
                "comm": p.comm_fraction,
                "dominant": p.dominant_resource,
                "shareable": "yes" if app.shareable else "no",
                "t1_h": app.base_runtime / 3600.0,
                "eff@16n": strong_scaling_efficiency(
                    16, p.serial_fraction, p.comm_fraction
                ),
                "sizes": "/".join(map(str, app.typical_nodes)),
            }
        )
    text = format_table(
        rows,
        title="E1 (Table I): Trinity mini-app characterisation",
    )
    return ExperimentOutput(experiment="E1", rows=rows, text=text)


# ----------------------------------------------------------------------
# E2 — Table II: pairwise co-run matrix
# ----------------------------------------------------------------------
def e2_pairing_matrix(params: ModelParams | None = None) -> ExperimentOutput:
    """Combined-throughput matrix for all mini-app pairs."""
    matrix = PairingMatrix(suite_profiles(), InterferenceModel(params))
    buffer = io.StringIO()
    buffer.write("E2 (Table II): pairwise combined throughput "
                 "(job-units per shared node-second)\n")
    buffer.write(matrix.format_table("throughput"))
    buffer.write("\n\nper-job co-run speeds (row app vs column co-runner)\n")
    buffer.write(matrix.format_table("speed"))
    names = matrix.names
    rows = [
        {
            "pair": f"{a}+{b}",
            "throughput": matrix.throughput_of(a, b),
            "compatible": matrix.compatible(a, b),
        }
        for i, a in enumerate(names)
        for b in names[i:]
    ]
    return ExperimentOutput(
        experiment="E2", rows=rows, text=buffer.getvalue(), extras={"matrix": matrix}
    )


# ----------------------------------------------------------------------
# E3 — Table III: headline strategy comparison
# ----------------------------------------------------------------------
def e3_headline(
    trace: WorkloadTrace | None = None,
    num_nodes: int = EVAL_NODES,
    strategies: Sequence[str] | None = None,
) -> ExperimentOutput:
    """All six strategies on the campaign; gains vs exclusive EASY."""
    if trace is None:
        trace = default_campaign(cluster_nodes=num_nodes)
    if strategies is None:
        strategies = all_strategy_names()
    results, summaries = compare_strategies(trace, strategies, num_nodes)
    text = format_comparison(
        summaries,
        baseline=BASELINE,
        title="E3 (Table III): node-sharing strategies vs exclusive baselines",
    )
    base = next(s for s in summaries if s.strategy == BASELINE)
    extras: dict[str, object] = {
        "results": {r.strategy: r for r in results},
        "summaries": {s.strategy: s for s in summaries},
    }
    rows = [s.as_dict() for s in summaries]
    for row, summary in zip(rows, summaries):
        row["comp_eff_gain_%"] = 100.0 * (
            summary.computational_efficiency / base.computational_efficiency - 1.0
        )
        row["sched_eff_gain_%"] = 100.0 * (
            (base.makespan - summary.makespan) / base.makespan
        )
        row["wait_gain_%"] = (
            100.0 * (base.mean_wait - summary.mean_wait) / base.mean_wait
            if base.mean_wait > 0
            else 0.0
        )
    return ExperimentOutput(experiment="E3", rows=rows, text=text, extras=extras)


# ----------------------------------------------------------------------
# E4 — Fig. 1: utilisation over time
# ----------------------------------------------------------------------
def e4_utilization_timeline(
    trace: WorkloadTrace | None = None,
    num_nodes: int = EVAL_NODES,
    strategies: Sequence[str] = (BASELINE,) + SHARED_STRATEGIES,
    points: int = 24,
) -> ExperimentOutput:
    """Busy-node fraction over time per strategy (series for Fig. 1)."""
    if trace is None:
        trace = default_campaign(cluster_nodes=num_nodes)
    results, _ = compare_strategies(trace, strategies, num_nodes)
    rows = []
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for result in results:
        assert result.collector is not None
        grid, busy = result.collector.timeline().resample("busy_nodes", points)
        series[result.strategy] = (grid, busy / num_nodes)
    # Align on the longest grid for the printed table.
    horizon = max(g[-1] for g, _ in series.values())
    grid = np.linspace(0.0, horizon, points)
    for i, t in enumerate(grid):
        row: dict[str, object] = {"t_h": t / 3600.0}
        for strategy, (g, u) in series.items():
            idx = np.searchsorted(g, t, side="right") - 1
            row[strategy] = float(u[max(idx, 0)]) if t <= g[-1] else 0.0
        rows.append(row)
    text = format_table(
        rows, title="E4 (Fig. 1): cluster utilisation over time (fraction busy)"
    )
    return ExperimentOutput(
        experiment="E4", rows=rows, text=text, extras={"series": series}
    )


# ----------------------------------------------------------------------
# E5 — Fig. 2: throughput curves
# ----------------------------------------------------------------------
def e5_throughput_curves(
    trace: WorkloadTrace | None = None,
    num_nodes: int = EVAL_NODES,
    strategies: Sequence[str] = (BASELINE,) + SHARED_STRATEGIES,
    points: int = 24,
) -> ExperimentOutput:
    """Cumulative completed jobs over time per strategy."""
    if trace is None:
        trace = default_campaign(cluster_nodes=num_nodes)
    results, _ = compare_strategies(trace, strategies, num_nodes)
    ends: dict[str, np.ndarray] = {}
    for result in results:
        ends[result.strategy] = np.sort(
            result.accounting.array(lambda r: r.end_time)
        )
    horizon = max(e[-1] for e in ends.values())
    grid = np.linspace(0.0, horizon, points)
    rows = []
    for t in grid:
        row: dict[str, object] = {"t_h": t / 3600.0}
        for strategy, sorted_ends in ends.items():
            row[strategy] = int(np.searchsorted(sorted_ends, t, side="right"))
        rows.append(row)
    text = format_table(
        rows,
        floatfmt=".2f",
        title="E5 (Fig. 2): cumulative completed jobs over time",
    )
    return ExperimentOutput(
        experiment="E5", rows=rows, text=text, extras={"ends": ends}
    )


# ----------------------------------------------------------------------
# E6 — Fig. 3: wait time by job-size class
# ----------------------------------------------------------------------
def e6_wait_by_class(
    trace: WorkloadTrace | None = None,
    num_nodes: int = EVAL_NODES,
    strategies: Sequence[str] = (BASELINE,) + SHARED_STRATEGIES,
) -> ExperimentOutput:
    """Mean wait per job-size class under each strategy."""
    if trace is None:
        trace = default_campaign(cluster_nodes=num_nodes)
    results, _ = compare_strategies(trace, strategies, num_nodes)
    rows = []
    for result in results:
        classes = wait_by_size_class(result)
        row: dict[str, object] = {"strategy": result.strategy}
        for label, wait in classes.items():
            row[f"wait_h[{label}]"] = wait / 3600.0
        rows.append(row)
    text = format_table(
        rows, title="E6 (Fig. 3): mean wait by job-size class (hours)"
    )
    return ExperimentOutput(experiment="E6", rows=rows, text=text)


# ----------------------------------------------------------------------
# E7 — Fig. 4: co-allocation mechanism overhead
# ----------------------------------------------------------------------
def e7_coallocation_overhead(num_nodes: int = 8) -> ExperimentOutput:
    """A lone job on shared-opened nodes vs exclusive nodes.

    The paper reports *no overhead* from the mechanism itself; in the
    model a lone occupant of a shared node runs at exactly full speed,
    so realised runtimes must match to machine precision.
    """
    rows = []
    for app_name in TRINITY_SUITE:
        spec = JobSpec(
            job_id=1,
            submit_time=0.0,
            num_nodes=4,
            walltime_req=7200.0,
            runtime_exclusive=3600.0,
            app=app_name,
            shareable=True,
        )
        trace = WorkloadTrace([spec], name=f"overhead-{app_name}")
        exclusive = run_simulation(
            trace,
            num_nodes=num_nodes,
            strategy="easy_backfill",
            collect_metrics=False,
        )
        shared = run_simulation(
            trace,
            num_nodes=num_nodes,
            strategy="shared_backfill",
            collect_metrics=False,
        )
        t_x = exclusive.accounting.get(1).run_time
        t_s = shared.accounting.get(1).run_time
        rows.append(
            {
                "app": app_name,
                "exclusive_s": t_x,
                "shared_alone_s": t_s,
                "overhead_%": 100.0 * (t_s - t_x) / t_x,
            }
        )
    text = format_table(
        rows,
        title=(
            "E7 (Fig. 4): co-allocation mechanism overhead "
            "(lone job, shared-opened vs exclusive nodes)"
        ),
    )
    return ExperimentOutput(experiment="E7", rows=rows, text=text)


# ----------------------------------------------------------------------
# E8 — Fig. 5: sensitivity to the shareable-job fraction
# ----------------------------------------------------------------------
def e8_share_fraction_sweep(
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    num_jobs: int = 250,
    num_nodes: int = EVAL_NODES,
    strategy: str = "shared_backfill",
    workers: int = 1,
) -> ExperimentOutput:
    """Efficiency gains as a function of the shareable fraction.

    The per-fraction traces are derived serially (each draws from the
    same RNG stream), then the simulations run through the campaign
    runner — fanned out over *workers* processes when > 1, with
    identical results either way.
    """
    rng = np.random.default_rng(EVAL_SEED + 1)
    base_trace = default_campaign(num_jobs=num_jobs, cluster_nodes=num_nodes)
    params = [
        simulate_params(
            BASELINE,
            campaign_workload(num_jobs=num_jobs, cluster_nodes=num_nodes),
            num_nodes,
        )
    ]
    for fraction in fractions:
        trace = base_trace.with_share_fraction(fraction, rng)
        params.append(
            simulate_params(strategy, inline_workload(trace), num_nodes)
        )
    payloads = run_params_many(params, workers=workers)
    baseline, sweep_payloads = payloads[0], payloads[1:]
    base_eff = baseline["summary"]["comp_eff"]
    base_makespan = baseline["makespan_s"]
    rows = []
    for fraction, payload in zip(fractions, sweep_payloads):
        summary = payload["summary"]
        rows.append(
            {
                "share_fraction": fraction,
                "comp_eff": summary["comp_eff"],
                "comp_eff_gain_%": 100.0
                * (summary["comp_eff"] / base_eff - 1.0),
                "sched_eff_gain_%": 100.0
                * (base_makespan - payload["makespan_s"]) / base_makespan,
                "shared_nodes": summary["shared_nodes"],
            }
        )
    text = format_table(
        rows,
        title=(
            "E8 (Fig. 5): efficiency gains vs fraction of shareable jobs "
            f"({strategy} vs {BASELINE})"
        ),
    )
    return ExperimentOutput(experiment="E8", rows=rows, text=text)


# ----------------------------------------------------------------------
# E9 — ablation: pairing-aware vs pairing-oblivious co-allocation
# ----------------------------------------------------------------------
def e9_pairing_ablation(
    num_jobs: int = 250,
    num_nodes: int = EVAL_NODES,
) -> ExperimentOutput:
    """How much of the gain comes from knowing which pairs work?"""
    trace = default_campaign(num_jobs=num_jobs, cluster_nodes=num_nodes)
    baseline = summarize(run_one(trace, BASELINE, num_nodes))
    rows = [
        {
            "variant": "exclusive (baseline)",
            "comp_eff": baseline.computational_efficiency,
            "makespan_h": baseline.makespan / 3600.0,
            "comp_eff_gain_%": 0.0,
            "sched_eff_gain_%": 0.0,
            "mean_shared_dilation": baseline.mean_shared_dilation,
        }
    ]
    for oblivious, label in ((False, "pairing-aware"), (True, "pairing-oblivious")):
        config = SchedulerConfig(
            strategy="shared_backfill", pairing_oblivious=oblivious
        )
        summary = summarize(
            run_one(trace, "shared_backfill", num_nodes, config=config)
        )
        rows.append(
            {
                "variant": label,
                "comp_eff": summary.computational_efficiency,
                "makespan_h": summary.makespan / 3600.0,
                "comp_eff_gain_%": 100.0
                * (summary.computational_efficiency
                   / baseline.computational_efficiency - 1.0),
                "sched_eff_gain_%": 100.0
                * (baseline.makespan - summary.makespan) / baseline.makespan,
                "mean_shared_dilation": summary.mean_shared_dilation,
            }
        )
    text = format_table(
        rows, title="E9 (ablation): pairing-aware vs pairing-oblivious sharing"
    )
    return ExperimentOutput(experiment="E9", rows=rows, text=text)


# ----------------------------------------------------------------------
# E10 — ablation: compatibility threshold sweep
# ----------------------------------------------------------------------
def e10_threshold_sweep(
    thresholds: Sequence[float] = (1.0, 1.1, 1.2, 1.3, 1.4),
    num_jobs: int = 250,
    num_nodes: int = EVAL_NODES,
    workers: int = 1,
) -> ExperimentOutput:
    """Sweep of the co-allocation compatibility threshold."""
    workload = campaign_workload(num_jobs=num_jobs, cluster_nodes=num_nodes)
    params = [simulate_params(BASELINE, workload, num_nodes)]
    params += [
        simulate_params(
            "shared_backfill",
            workload,
            num_nodes,
            config={"share_threshold": float(theta)},
        )
        for theta in thresholds
    ]
    payloads = run_params_many(params, workers=workers)
    baseline, sweep_payloads = payloads[0], payloads[1:]
    base_eff = baseline["summary"]["comp_eff"]
    base_makespan = baseline["makespan_s"]
    rows = []
    for theta, payload in zip(thresholds, sweep_payloads):
        summary = payload["summary"]
        rows.append(
            {
                "threshold": theta,
                "comp_eff_gain_%": 100.0
                * (summary["comp_eff"] / base_eff - 1.0),
                "sched_eff_gain_%": 100.0
                * (base_makespan - payload["makespan_s"]) / base_makespan,
                "shared_nodes": summary["shared_nodes"],
                "mean_shared_dilation": summary["shared_dilation"],
            }
        )
    text = format_table(
        rows, title="E10 (ablation): co-allocation compatibility threshold"
    )
    return ExperimentOutput(experiment="E10", rows=rows, text=text)


# ----------------------------------------------------------------------
# E12 — SWF replay
# ----------------------------------------------------------------------
def e12_swf_replay(
    path: str | None = None,
    num_jobs: int = 250,
    num_nodes: int = EVAL_NODES,
) -> ExperimentOutput:
    """Round-trip the campaign through SWF and replay both strategies.

    With *path* given, replays that SWF file instead (apps recovered
    from the header when present; unknown apps use the default
    profile and the exclusive queue).
    """
    app_names = list(TRINITY_SUITE)
    if path is None:
        trace = default_campaign(num_jobs=num_jobs, cluster_nodes=num_nodes)
        buffer = io.StringIO()
        write_swf(trace, buffer, cores_per_node=32, app_names=app_names)
        buffer.seek(0)
        replayed = read_swf(
            buffer, cores_per_node=32, app_names=app_names, name="swf-replay"
        )
    else:
        header_apps = read_swf_header_apps(path)
        replayed = read_swf(
            path, cores_per_node=32, app_names=header_apps or app_names
        )
    strategies = (BASELINE,) + SHARED_STRATEGIES
    _, summaries = compare_strategies(replayed, strategies, num_nodes)
    text = format_comparison(
        summaries,
        baseline=BASELINE,
        title="E12: strategy comparison on an SWF-replayed trace",
    )
    rows = [s.as_dict() for s in summaries]
    return ExperimentOutput(
        experiment="E12", rows=rows, text=text, extras={"trace": replayed}
    )


# ----------------------------------------------------------------------
# E13 — scaling: gains vs cluster size
# ----------------------------------------------------------------------
def e13_cluster_scaling(
    sizes: Sequence[int] = (32, 64, 128, 256),
    jobs_per_node: float = 2.0,
) -> ExperimentOutput:
    """Do the sharing gains survive across machine scales?

    Each point runs a campaign proportional to the cluster (constant
    jobs-per-node), so queue pressure is comparable across sizes.
    """
    rows = []
    for size in sizes:
        trace = default_campaign(
            num_jobs=int(size * jobs_per_node), cluster_nodes=size
        )
        baseline = summarize(run_one(trace, BASELINE, size))
        shared = summarize(run_one(trace, "shared_backfill", size))
        rows.append(
            {
                "nodes": size,
                "jobs": len(trace),
                "comp_eff_gain_%": 100.0
                * (shared.computational_efficiency
                   / baseline.computational_efficiency - 1.0),
                "sched_eff_gain_%": 100.0
                * (baseline.makespan - shared.makespan) / baseline.makespan,
                "shared_nodes": shared.shared_node_fraction,
            }
        )
    text = format_table(
        rows, title="E13 (scaling): sharing gains vs cluster size"
    )
    return ExperimentOutput(experiment="E13", rows=rows, text=text)


# ----------------------------------------------------------------------
# E14 — sensitivity: user walltime-estimate accuracy
# ----------------------------------------------------------------------
def e14_walltime_accuracy(
    overestimates: Sequence[float] = (1.05, 1.5, 2.0, 3.0),
    num_jobs: int = 250,
    num_nodes: int = EVAL_NODES,
) -> ExperimentOutput:
    """Backfill quality depends on walltime estimates; sharing's join
    path does not (joins never consult the shadow window), so the
    sharing advantage should *grow* as estimates degrade."""
    rows = []
    for factor in overestimates:
        rng = np.random.default_rng(EVAL_SEED)
        generator = TrinityWorkloadGenerator(
            share_obeys_app=False,
            share_fraction=EVAL_SHARE_FRACTION,
            offered_load=EVAL_LOAD,
            overestimate_range=(factor, factor),
        )
        trace = generator.generate(num_jobs, num_nodes, rng)
        baseline = summarize(run_one(trace, BASELINE, num_nodes))
        shared = summarize(run_one(trace, "shared_backfill", num_nodes))
        rows.append(
            {
                "overestimate": factor,
                "base_makespan_h": baseline.makespan / 3600.0,
                "shared_makespan_h": shared.makespan / 3600.0,
                "sched_eff_gain_%": 100.0
                * (baseline.makespan - shared.makespan) / baseline.makespan,
                "comp_eff_gain_%": 100.0
                * (shared.computational_efficiency
                   / baseline.computational_efficiency - 1.0),
            }
        )
    text = format_table(
        rows,
        title="E14 (sensitivity): gains vs user walltime over-estimation",
    )
    return ExperimentOutput(experiment="E14", rows=rows, text=text)


# ----------------------------------------------------------------------
# E15 — sensitivity: offered load
# ----------------------------------------------------------------------
def e15_offered_load_sweep(
    loads: Sequence[float] = (0.7, 1.0, 1.3, 1.6),
    num_jobs: int = 250,
    num_nodes: int = EVAL_NODES,
    workers: int = 1,
) -> ExperimentOutput:
    """Sharing needs queue pressure to find partners: gains should be
    small on an under-subscribed machine and grow with load."""
    params = []
    for load in loads:
        workload = campaign_workload(
            num_jobs=num_jobs, cluster_nodes=num_nodes, offered_load=load
        )
        params.append(simulate_params(BASELINE, workload, num_nodes))
        params.append(simulate_params("shared_backfill", workload, num_nodes))
    payloads = run_params_many(params, workers=workers)
    rows = []
    for i, load in enumerate(loads):
        baseline, shared = payloads[2 * i], payloads[2 * i + 1]
        base_summary, shared_summary = baseline["summary"], shared["summary"]
        rows.append(
            {
                "offered_load": load,
                "base_util": base_summary["utilization"],
                "comp_eff_gain_%": 100.0
                * (shared_summary["comp_eff"] / base_summary["comp_eff"] - 1.0),
                "sched_eff_gain_%": 100.0
                * (baseline["makespan_s"] - shared["makespan_s"])
                / baseline["makespan_s"],
                "wait_gain_%": (
                    100.0 * (baseline["mean_wait_s"] - shared["mean_wait_s"])
                    / baseline["mean_wait_s"]
                    if baseline["mean_wait_s"] > 0 else 0.0
                ),
                "shared_nodes": shared_summary["shared_nodes"],
            }
        )
    text = format_table(
        rows, title="E15 (sensitivity): sharing gains vs offered load"
    )
    return ExperimentOutput(experiment="E15", rows=rows, text=text)


# ----------------------------------------------------------------------
# E16 — ablation: topology-aware placement under a locality penalty
# ----------------------------------------------------------------------
def e16_topology_ablation(
    rack_comm_penalty: float = 0.3,
    num_jobs: int = 250,
    num_nodes: int = EVAL_NODES,
    nodes_per_rack: int = 16,
) -> ExperimentOutput:
    """Does rack-packed node selection pay off when crossing racks
    costs communication time?

    Runs the campaign with the rack-communication penalty enabled,
    once with SLURM's linear node selector and once with the
    topology-aware (rack-packing) selector, for both the exclusive
    baseline and shared backfill.
    """
    from repro.cluster.machine import Cluster
    from repro.metrics.collector import MetricsCollector
    from repro.slurm.manager import WorkloadManager

    trace = default_campaign(num_jobs=num_jobs, cluster_nodes=num_nodes)
    rows = []
    for strategy in (BASELINE, "shared_backfill"):
        for aware in (False, True):
            config = SchedulerConfig(
                strategy=strategy,
                topology_aware=aware,
                rack_comm_penalty=rack_comm_penalty,
            )
            cluster = Cluster.homogeneous(
                num_nodes, nodes_per_rack=nodes_per_rack
            )
            manager = WorkloadManager(
                cluster, config=config, collector=MetricsCollector(cluster)
            )
            manager.load(trace)
            result = manager.run()
            summary = summarize(result)
            multi = [r for r in result.accounting if r.num_nodes > nodes_per_rack]
            racks = result.accounting.array(lambda r: r.racks_spanned)
            rows.append(
                {
                    "strategy": strategy,
                    "selector": "topology" if aware else "linear",
                    "makespan_h": summary.makespan / 3600.0,
                    "comp_eff": summary.computational_efficiency,
                    "mean_racks": float(racks.mean()),
                    "forced_multirack_jobs": len(multi),
                }
            )
    text = format_table(
        rows,
        title=(
            "E16 (ablation): linear vs topology-aware node selection "
            f"(rack penalty {rack_comm_penalty})"
        ),
    )
    return ExperimentOutput(experiment="E16", rows=rows, text=text)


# ----------------------------------------------------------------------
# E17 — energy-to-solution comparison
# ----------------------------------------------------------------------
def e17_energy(
    trace: WorkloadTrace | None = None,
    num_nodes: int = EVAL_NODES,
    strategies: Sequence[str] | None = None,
) -> ExperimentOutput:
    """Energy argument: sharing powers fewer node-hours per unit of
    science.  Integrates a three-level node power model over each
    strategy's occupancy timeline."""
    from repro.metrics.energy import NodePowerModel, energy_efficiency, energy_to_solution

    if trace is None:
        trace = default_campaign(num_jobs=250, cluster_nodes=num_nodes)
    if strategies is None:
        strategies = ("fcfs", BASELINE) + SHARED_STRATEGIES
    power = NodePowerModel()
    results, summaries = compare_strategies(trace, strategies, num_nodes)
    base_energy = None
    rows = []
    for result, summary in zip(results, summaries):
        joules = energy_to_solution(result, power)
        if result.strategy == BASELINE:
            base_energy = joules
        rows.append(
            {
                "strategy": result.strategy,
                "makespan_h": summary.makespan / 3600.0,
                "energy_MWh": joules / 3.6e9,
                "work_per_kJ": energy_efficiency(result, power),
                "_joules": joules,
            }
        )
    for row in rows:
        row["energy_saving_%"] = (
            100.0 * (base_energy - row.pop("_joules")) / base_energy
            if base_energy else 0.0
        )
    text = format_table(
        rows,
        title="E17: energy-to-solution per strategy "
              f"(node power {power.idle_w:.0f}/{power.busy_w:.0f}/"
              f"{power.shared_w:.0f} W idle/busy/shared)",
    )
    return ExperimentOutput(experiment="E17", rows=rows, text=text)


# ----------------------------------------------------------------------
# E18 — robustness: diurnal (day/night) submission cycles
# ----------------------------------------------------------------------
def e18_diurnal_workload(
    amplitudes: Sequence[float] = (0.0, 0.4, 0.8),
    num_jobs: int = 250,
    num_nodes: int = EVAL_NODES,
) -> ExperimentOutput:
    """Real traces have strong daily submission cycles; night-time
    queue drains starve the pairing pool.  How much of the sharing
    gain survives increasingly bursty arrivals?"""
    rows = []
    for amplitude in amplitudes:
        rng = np.random.default_rng(EVAL_SEED)
        generator = TrinityWorkloadGenerator(
            share_obeys_app=False,
            share_fraction=EVAL_SHARE_FRACTION,
            offered_load=EVAL_LOAD,
            diurnal_amplitude=amplitude,
        )
        trace = generator.generate(num_jobs, num_nodes, rng)
        baseline = summarize(run_one(trace, BASELINE, num_nodes))
        shared = summarize(run_one(trace, "shared_backfill", num_nodes))
        rows.append(
            {
                "amplitude": amplitude,
                "comp_eff_gain_%": 100.0
                * (shared.computational_efficiency
                   / baseline.computational_efficiency - 1.0),
                "sched_eff_gain_%": 100.0
                * (baseline.makespan - shared.makespan) / baseline.makespan,
                "shared_nodes": shared.shared_node_fraction,
            }
        )
    text = format_table(
        rows,
        title="E18 (robustness): sharing gains under diurnal submission cycles",
    )
    return ExperimentOutput(experiment="E18", rows=rows, text=text)


# ----------------------------------------------------------------------
# E19 — replication: headline gains with confidence intervals
# ----------------------------------------------------------------------
def e19_replicated_headline(
    seeds: Sequence[int] = (11, 23, 37, 59, 71),
    num_jobs: int = 150,
    num_nodes: int = 64,
    workers: int = 1,
) -> ExperimentOutput:
    """The headline deltas over independent workload seeds, with 95 %
    Student-t confidence intervals — the reproduction's statistical
    backbone (single-trace deltas can be seed artefacts)."""
    from repro.analysis.stats import replicate_gains

    rows = []
    estimates_by_strategy = {}
    for strategy in SHARED_STRATEGIES:
        estimates = replicate_gains(
            seeds, strategy=strategy, num_jobs=num_jobs, num_nodes=num_nodes,
            workers=workers,
        )
        estimates_by_strategy[strategy] = estimates
        rows.append(
            {
                "strategy": strategy,
                "comp_eff_gain_%": 100.0 * estimates["comp_eff_gain"].mean,
                "comp_ci_%": 100.0 * estimates["comp_eff_gain"].half_width,
                "sched_eff_gain_%": 100.0 * estimates["sched_eff_gain"].mean,
                "sched_ci_%": 100.0 * estimates["sched_eff_gain"].half_width,
                "wait_gain_%": 100.0 * estimates["wait_gain"].mean,
                "wait_ci_%": 100.0 * estimates["wait_gain"].half_width,
            }
        )
    text = format_table(
        rows,
        title=(
            f"E19 (replication): gains vs {BASELINE} over {len(seeds)} "
            f"seeds, mean ± 95% CI half-width"
        ),
    )
    return ExperimentOutput(
        experiment="E19", rows=rows, text=text,
        extras={"estimates": estimates_by_strategy},
    )


# ----------------------------------------------------------------------
# E20 — resilience: node failures and the sharing blast radius
# ----------------------------------------------------------------------
def e20_failure_resilience(
    mtbf_hours: Sequence[float] = (float("inf"), 2000.0, 500.0),
    num_jobs: int = 200,
    num_nodes: int = 64,
    repair_hours: float = 4.0,
    seed: int = EVAL_SEED,
) -> ExperimentOutput:
    """A shared node's failure evicts *two* jobs — does node sharing
    amplify failure damage enough to erode its efficiency gains?

    Sweeps per-node MTBF from "no failures" to aggressive; at each
    point both strategies replay the same trace under the same failure
    seed, and we compare lost work and the surviving sharing gain.
    """
    from repro.cluster.machine import Cluster
    from repro.metrics.collector import MetricsCollector
    from repro.resilience import ResilienceConfig
    from repro.slurm.manager import WorkloadManager

    trace = default_campaign(num_jobs=num_jobs, cluster_nodes=num_nodes)
    rows = []
    for mtbf in mtbf_hours:
        per_strategy = {}
        for strategy in (BASELINE, "shared_backfill"):
            cluster = Cluster.homogeneous(num_nodes)
            manager = WorkloadManager(
                cluster,
                config=SchedulerConfig(strategy=strategy),
                collector=MetricsCollector(cluster),
            )
            manager.load(trace)
            if mtbf != float("inf"):
                manager.enable_resilience(ResilienceConfig(
                    node_mtbf_hours=mtbf, repair_hours=repair_hours,
                    max_requeues=None, seed=seed,
                ))
            result = manager.run()
            per_strategy[strategy] = (result, summarize(result), manager)
        base_res, base_sum, base_mgr = per_strategy[BASELINE]
        shared_res, shared_sum, shared_mgr = per_strategy["shared_backfill"]
        rows.append(
            {
                "mtbf_h": mtbf if mtbf != float("inf") else -1.0,
                "failures": shared_mgr.failures_injected,
                "requeues_excl": base_mgr.jobs_requeued,
                "requeues_shared": shared_mgr.jobs_requeued,
                "lost_h_excl": sum(
                    r.lost_work * r.num_nodes for r in base_res.accounting
                ) / 3600.0,
                "lost_h_shared": sum(
                    r.lost_work * r.num_nodes for r in shared_res.accounting
                ) / 3600.0,
                "comp_eff_gain_%": 100.0
                * (shared_sum.computational_efficiency
                   / base_sum.computational_efficiency - 1.0),
                "sched_eff_gain_%": 100.0
                * (base_sum.makespan - shared_sum.makespan)
                / base_sum.makespan,
            }
        )
    text = format_table(
        rows,
        title=(
            "E20 (resilience): sharing gains under node failures "
            "(mtbf_h = -1 means no failures)"
        ),
    )
    return ExperimentOutput(experiment="E20", rows=rows, text=text)


# ----------------------------------------------------------------------
# E21 — resilience: checkpoint/restart vs lost work
# ----------------------------------------------------------------------
def e21_checkpoint_rescue(
    policies: Sequence[str] = ("none", "periodic", "daly"),
    num_jobs: int = 200,
    num_nodes: int = 64,
    mtbf_hours: float = 250.0,
    checkpoint_overhead_s: float = 120.0,
    seed: int = EVAL_SEED,
    workers: int = 1,
) -> ExperimentOutput:
    """How much failure damage does checkpoint/restart buy back?

    Sweeps the checkpoint policy (none / fixed-interval periodic /
    per-job Young-Daly optimal) crossed with the sharing strategy.
    Every cell replays the same trace under the same seeded failure
    process, so the goodput gap between cells is attributable to the
    policy alone: no checkpointing loses each victim's full progress,
    checkpointing trades a steady overhead for bounded loss.  Runs
    through the campaign runner (``workers`` > 1 parallelises).
    """
    workload = campaign_workload(num_jobs=num_jobs, cluster_nodes=num_nodes)
    cells = [
        (strategy, policy)
        for strategy in (BASELINE, "shared_backfill")
        for policy in policies
    ]
    params = [
        simulate_params(
            strategy,
            workload,
            num_nodes,
            config={
                "resilience": {
                    "node_mtbf_hours": float(mtbf_hours),
                    "checkpoint": policy,
                    "checkpoint_overhead_s": float(checkpoint_overhead_s),
                    "seed": int(seed),
                }
            },
        )
        for strategy, policy in cells
    ]
    payloads = run_params_many(params, workers=workers)
    rows = []
    for (strategy, policy), payload in zip(cells, payloads):
        res = payload["resilience"]
        rows.append(
            {
                "strategy": strategy,
                "checkpoint": policy,
                "failures": res["failures"],
                "requeued": res["jobs_requeued"],
                "failed": res["jobs_failed"],
                "goodput_nh": res["goodput_node_hours"],
                "wasted_nh": res["wasted_node_hours"],
                "ckpt_nh": res["checkpoint_overhead_node_hours"],
                "goodput_frac": res["goodput_fraction"],
                "makespan_h": payload["makespan_s"] / 3600.0,
            }
        )
    text = format_table(
        rows,
        title=(
            "E21 (resilience): checkpoint policy x sharing strategy "
            f"under node failures (MTBF {mtbf_hours:g}h/node)"
        ),
    )
    return ExperimentOutput(experiment="E21", rows=rows, text=text)


# ----------------------------------------------------------------------
# E22 — resilience: correlated rack failures and the sharing blast radius
# ----------------------------------------------------------------------
def e22_correlated_failures(
    share_fractions: Sequence[float] = (0.0, 0.5, 1.0),
    num_jobs: int = 200,
    num_nodes: int = 64,
    rack_mtbf_hours: float = 60.0,
    seed: int = EVAL_SEED,
    workers: int = 1,
) -> ExperimentOutput:
    """Whole-rack failures: does sharing widen the blast radius?

    A rack (switch/PDU) event takes down every node behind it at once,
    so its blast radius is the rack's resident job population — which
    node sharing doubles in the limit.  Sweeps the shareable fraction
    under a fixed seeded rack-failure process and reports per-failure
    blast statistics.  Runs through the campaign runner (``workers`` >
    1 parallelises).
    """
    params = [
        simulate_params(
            "shared_backfill",
            campaign_workload(
                num_jobs=num_jobs,
                cluster_nodes=num_nodes,
                share_fraction=float(fraction),
            ),
            num_nodes,
            config={
                "resilience": {
                    "rack_mtbf_hours": float(rack_mtbf_hours),
                    "seed": int(seed),
                }
            },
        )
        for fraction in share_fractions
    ]
    payloads = run_params_many(params, workers=workers)
    rows = []
    for fraction, payload in zip(share_fractions, payloads):
        res = payload["resilience"]
        summary = payload["summary"]
        rows.append(
            {
                "share_fraction": fraction,
                "rack_failures": res["rack_failures"],
                "evicted": res["jobs_requeued"] + res["jobs_failed"],
                "failed": res["jobs_failed"],
                "mean_blast_jobs": res["mean_blast_jobs"],
                "max_blast_jobs": res["max_blast_jobs"],
                "mean_blast_nh": res["mean_blast_node_hours"],
                "wasted_nh": res["wasted_node_hours"],
                "goodput_frac": res["goodput_fraction"],
                "shared_nodes": summary["shared_nodes"],
            }
        )
    text = format_table(
        rows,
        title=(
            "E22 (resilience): correlated rack failures vs shareable "
            f"fraction (rack MTBF {rack_mtbf_hours:g}h, shared_backfill)"
        ),
    )
    return ExperimentOutput(experiment="E22", rows=rows, text=text)


# ----------------------------------------------------------------------
# E23 — extension: online walltime prediction for backfill
# ----------------------------------------------------------------------
def e23_walltime_prediction(
    num_jobs: int = 250,
    num_nodes: int = 64,
    overestimate_range: tuple[float, float] = (2.0, 4.0),
) -> ExperimentOutput:
    """Does Tsafrir-style per-user runtime prediction help, and does
    it stack with sharing?

    Uses badly over-estimating users (2–4×), the regime prediction
    targets.  Known from the literature — and reproduced here — the
    effect is modest and mixed: corrected estimates tighten backfill
    windows (helping makespan) but also embolden the scheduler into
    reservations that slip (hurting some waits).
    """
    rng = np.random.default_rng(EVAL_SEED)
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False,
        share_fraction=EVAL_SHARE_FRACTION,
        offered_load=EVAL_LOAD,
        overestimate_range=overestimate_range,
    ).generate(num_jobs, num_nodes, rng)
    rows = []
    for strategy in (BASELINE, "shared_backfill"):
        for predict in (False, True):
            config = SchedulerConfig(
                strategy=strategy, use_walltime_prediction=predict
            )
            summary = summarize(
                run_one(trace, strategy, num_nodes, config=config)
            )
            rows.append(
                {
                    "strategy": strategy,
                    "prediction": "on" if predict else "off",
                    "makespan_h": summary.makespan / 3600.0,
                    "mean_wait_h": summary.mean_wait / 3600.0,
                    "bounded_slowdown": summary.mean_bounded_slowdown,
                    "timeouts": summary.timeouts,
                }
            )
    text = format_table(
        rows,
        title=(
            "E23 (extension): online walltime prediction under 2-4x "
            "user over-estimation"
        ),
    )
    return ExperimentOutput(experiment="E23", rows=rows, text=text)


# ----------------------------------------------------------------------
# E24 — comparison: SMT (spatial) vs time-sliced (temporal) sharing
# ----------------------------------------------------------------------
def e24_sharing_mode_comparison(
    num_jobs: int = 250,
    num_nodes: int = 64,
) -> ExperimentOutput:
    """The paper's core argument, made quantitative: SMT lanes exploit
    resource complementarity (combined throughput > 1), while gang-
    style time slicing tops out below 1 (switch overhead) — it can
    improve responsiveness, never throughput."""
    trace = default_campaign(num_jobs=num_jobs, cluster_nodes=num_nodes)
    configs = [
        ("exclusive", SchedulerConfig(strategy=BASELINE)),
        (
            "smt_sharing",
            SchedulerConfig(strategy="shared_backfill", sharing_mode="smt"),
        ),
        (
            "time_sliced",
            SchedulerConfig(
                strategy="shared_backfill",
                sharing_mode="time_sliced",
                share_threshold=0.95,
                walltime_grace=2.2,
            ),
        ),
    ]
    base_summary = None
    rows = []
    for label, config in configs:
        summary = summarize(
            run_one(trace, config.strategy, num_nodes, config=config)
        )
        if label == "exclusive":
            base_summary = summary
        rows.append((label, summary))
    assert base_summary is not None
    table = []
    for label, summary in rows:
        table.append(
            {
                "mode": label,
                "makespan_h": summary.makespan / 3600.0,
                "comp_eff": summary.computational_efficiency,
                "mean_wait_h": summary.mean_wait / 3600.0,
                "bounded_slowdown": summary.mean_bounded_slowdown,
                "shared_nodes": summary.shared_node_fraction,
                "comp_eff_gain_%": 100.0
                * (summary.computational_efficiency
                   / base_summary.computational_efficiency - 1.0),
                "sched_eff_gain_%": 100.0
                * (base_summary.makespan - summary.makespan)
                / base_summary.makespan,
            }
        )
    text = format_table(
        table,
        title=(
            "E24: spatial (SMT) vs temporal (time-sliced) node sharing, "
            "both via shared_backfill"
        ),
    )
    return ExperimentOutput(experiment="E24", rows=table, text=text)


# ----------------------------------------------------------------------
# Registry — the single source of truth for experiment dispatch
# ----------------------------------------------------------------------
#: Every implemented experiment, keyed by its id.  The CLI
#: ``experiment`` subcommand, the campaign subsystem's ``experiment``
#: run kind and the benchmark harness all dispatch through this table,
#: so a new ``eN`` driver registered here is immediately reachable
#: everywhere.  (E11 is the scheduler-cost microbenchmark and lives in
#: ``benchmarks/test_e11_scheduler_cost.py``; it has no driver here.)
EXPERIMENT_REGISTRY: dict[str, Callable[[], ExperimentOutput]] = {
    "e1": e1_miniapp_table,
    "e2": e2_pairing_matrix,
    "e3": e3_headline,
    "e4": e4_utilization_timeline,
    "e5": e5_throughput_curves,
    "e6": e6_wait_by_class,
    "e7": e7_coallocation_overhead,
    "e8": e8_share_fraction_sweep,
    "e9": e9_pairing_ablation,
    "e10": e10_threshold_sweep,
    "e12": e12_swf_replay,
    "e13": e13_cluster_scaling,
    "e14": e14_walltime_accuracy,
    "e15": e15_offered_load_sweep,
    "e16": e16_topology_ablation,
    "e17": e17_energy,
    "e18": e18_diurnal_workload,
    "e19": e19_replicated_headline,
    "e20": e20_failure_resilience,
    "e21": e21_checkpoint_rescue,
    "e22": e22_correlated_failures,
    "e23": e23_walltime_prediction,
    "e24": e24_sharing_mode_comparison,
}

#: Experiments accepting a ``workers=N`` keyword (their inner sweeps
#: run on the campaign runner and parallelise across processes).
PARALLEL_EXPERIMENTS = frozenset({"e8", "e10", "e15", "e19", "e21", "e22"})


def experiment_ids() -> list[str]:
    """Registered ids in numeric order (e1, e2, ..., e24)."""
    return sorted(EXPERIMENT_REGISTRY, key=lambda e: int(e[1:]))
