"""repro — node-sharing strategies for HPC batch systems, reproduced.

A trace-driven reproduction of Frank, Süß & Brinkmann, *"Effects and
Benefits of Node Sharing Strategies in HPC Batch Systems"* (IPDPS
2019): a SLURM-like batch-system simulator with co-allocation-aware
First-Fit and Backfill scheduling strategies, an SMT co-run
interference model, a Trinity-inspired mini-app suite, and the full
evaluation harness.  See DESIGN.md for the system inventory and the
title-mismatch note, and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    import numpy as np
    from repro import TrinityWorkloadGenerator, run_simulation, summarize

    rng = np.random.default_rng(7)
    trace = TrinityWorkloadGenerator().generate(
        num_jobs=200, cluster_nodes=64, rng=rng
    )
    base = run_simulation(trace, num_nodes=64, strategy="easy_backfill")
    shared = run_simulation(trace, num_nodes=64, strategy="shared_backfill")
    print(summarize(base))
    print(summarize(shared))
"""

from repro.cluster import Allocation, AllocationKind, Cluster, Node, NodeMode, Partition
from repro.core import (
    ConservativeBackfillStrategy,
    EasyBackfillStrategy,
    FcfsStrategy,
    FirstFitStrategy,
    PairingPolicy,
    Placement,
    ScheduleContext,
    SharedBackfillStrategy,
    SharedConservativeStrategy,
    SharedFirstFitStrategy,
    Strategy,
    make_strategy,
)
from repro.engine import Event, EventKind, RngStreams, Simulator
from repro.errors import (
    AllocationError,
    ConfigError,
    JobStateError,
    ReproError,
    SchedulingError,
    SimulationError,
    TraceFormatError,
    WorkloadError,
)
from repro.interference import (
    InterferenceModel,
    ModelParams,
    PairingMatrix,
    ResourceProfile,
)
from repro.metrics import (
    MetricsCollector,
    ScheduleSummary,
    Timeline,
    computational_efficiency,
    format_comparison,
    format_table,
    scheduling_efficiency,
    summarize,
    utilization,
)
from repro.miniapps import TRINITY_SUITE, MiniApp, get_miniapp, suite_names
from repro.slurm import (
    AccountingLog,
    Job,
    JobRecord,
    JobState,
    Reservation,
    SchedulerConfig,
    SimulationResult,
    WorkloadManager,
    parse_slurm_conf,
    run_simulation,
)
from repro.workload import (
    JobSpec,
    SyntheticWorkloadGenerator,
    TrinityWorkloadGenerator,
    WorkloadTrace,
    read_swf,
    write_swf,
)

__version__ = "1.0.0"

__all__ = [
    # cluster
    "Allocation", "AllocationKind", "Cluster", "Node", "NodeMode", "Partition",
    # strategies
    "ConservativeBackfillStrategy", "EasyBackfillStrategy", "FcfsStrategy",
    "FirstFitStrategy", "PairingPolicy", "Placement", "ScheduleContext",
    "SharedBackfillStrategy", "SharedConservativeStrategy",
    "SharedFirstFitStrategy", "Strategy", "make_strategy",
    # engine
    "Event", "EventKind", "RngStreams", "Simulator",
    # errors
    "AllocationError", "ConfigError", "JobStateError", "ReproError",
    "SchedulingError", "SimulationError", "TraceFormatError", "WorkloadError",
    # interference
    "InterferenceModel", "ModelParams", "PairingMatrix", "ResourceProfile",
    # metrics
    "MetricsCollector", "ScheduleSummary", "Timeline",
    "computational_efficiency", "format_comparison", "format_table",
    "scheduling_efficiency", "summarize", "utilization",
    # mini-apps
    "TRINITY_SUITE", "MiniApp", "get_miniapp", "suite_names",
    # slurm
    "AccountingLog", "Job", "JobRecord", "JobState",
    "Reservation",
    "SchedulerConfig",
    "SimulationResult", "WorkloadManager", "parse_slurm_conf",
    "run_simulation",
    # workload
    "JobSpec", "SyntheticWorkloadGenerator", "TrinityWorkloadGenerator",
    "WorkloadTrace", "read_swf", "write_swf",
]
