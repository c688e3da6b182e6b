"""Replication statistics for experiment results.

Single-trace deltas can be seed artefacts; this module reruns a
comparison over independent workload seeds and reports means with
Student-t confidence intervals, the standard presentation for
simulation studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.sweep import run_params_many
from repro.campaign.spec import simulate_params, trinity_workload
from repro.errors import ConfigError


@dataclass(frozen=True)
class IntervalEstimate:
    """Mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    level: float
    samples: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def excludes_zero(self) -> bool:
        return self.low > 0.0 or self.high < 0.0

    def __str__(self) -> str:
        return (
            f"{self.mean:.3f} ± {self.half_width:.3f} "
            f"({self.level:.0%} CI, n={self.samples})"
        )


def confidence_interval(
    samples: Sequence[float], level: float = 0.95
) -> IntervalEstimate:
    """Student-t confidence interval for the mean of *samples*."""
    if not (0.0 < level < 1.0):
        raise ConfigError(f"confidence level {level} outside (0, 1)")
    values = np.asarray(samples, dtype=np.float64)
    if values.size < 2:
        raise ConfigError(
            f"need at least 2 samples for an interval, got {values.size}"
        )
    try:
        # Imported here, not at module load: scipy is an optional
        # dependency and costs more than a second to import, which
        # every CLI command would otherwise pay.
        from scipy import stats as sps
    except ImportError as exc:
        raise ConfigError(
            "confidence intervals need scipy, which is not installed "
            "(pip install scipy)"
        ) from exc
    mean = float(values.mean())
    sem = float(values.std(ddof=1) / np.sqrt(values.size))
    t_crit = float(sps.t.ppf(0.5 + level / 2.0, df=values.size - 1))
    return IntervalEstimate(
        mean=mean, half_width=t_crit * sem, level=level, samples=values.size
    )


def replicate_gains(
    seeds: Sequence[int],
    strategy: str = "shared_backfill",
    baseline: str = "easy_backfill",
    num_jobs: int = 150,
    num_nodes: int = 64,
    offered_load: float = 1.5,
    share_fraction: float = 0.85,
    level: float = 0.95,
    workers: int = 1,
) -> dict[str, IntervalEstimate]:
    """Sharing gains over independently seeded campaigns.

    Returns interval estimates for the computational-efficiency gain,
    the makespan (scheduling-efficiency) gain, and the mean-wait gain,
    each as a fraction (0.15 = +15 %).  The per-seed simulations run
    on the campaign runner; ``workers > 1`` fans them out over a
    process pool with identical results.
    """
    if len(seeds) < 2:
        raise ConfigError("replication needs at least 2 seeds")
    params = []
    for seed in seeds:
        workload = trinity_workload(
            jobs=num_jobs,
            nodes=num_nodes,
            seed=seed,
            offered_load=offered_load,
            share_fraction=share_fraction,
            name=f"trinity-s{seed}",
        )
        params.append(simulate_params(baseline, workload, num_nodes))
        params.append(simulate_params(strategy, workload, num_nodes))
    payloads = run_params_many(params, workers=workers)
    comp_gains, sched_gains, wait_gains = [], [], []
    for i in range(len(seeds)):
        base, shared = payloads[2 * i], payloads[2 * i + 1]
        comp_gains.append(
            shared["summary"]["comp_eff"] / base["summary"]["comp_eff"] - 1.0
        )
        sched_gains.append(
            (base["makespan_s"] - shared["makespan_s"]) / base["makespan_s"]
        )
        base_wait = base["mean_wait_s"]
        wait_gains.append(
            (base_wait - shared["mean_wait_s"]) / base_wait
            if base_wait > 0 else 0.0
        )
    return {
        "comp_eff_gain": confidence_interval(comp_gains, level),
        "sched_eff_gain": confidence_interval(sched_gains, level),
        "wait_gain": confidence_interval(wait_gains, level),
    }
