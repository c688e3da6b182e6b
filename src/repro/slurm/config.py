"""Scheduler configuration, including a slurm.conf-style parser.

The evaluation drives everything programmatically through
:class:`SchedulerConfig`, but the substrate also accepts the familiar
``Key=Value`` configuration format so example setups read like the
real system's::

    NodeCount=128
    CoresPerNode=32
    SchedulerType=sched/backfill
    OverSubscribe=YES:2
    ShareThreshold=1.1
    WalltimeGrace=2.0
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.diagnostics.config import DiagnosticsConfig
from repro.errors import ConfigError
from repro.interference.model import ModelParams
from repro.interference.profile import ResourceProfile
from repro.observability.config import TelemetryConfig
from repro.resilience.config import ResilienceConfig
from repro.slurm.priority import PriorityWeights

#: Profile assumed for jobs whose application is unknown (e.g. SWF
#: replays without an executable mapping): a middle-of-the-road mixed
#: workload, deliberately conservative for pairing decisions.
DEFAULT_PROFILE = ResourceProfile(
    name="generic",
    core_demand=0.70,
    membw_demand=0.60,
    cache_footprint=0.45,
    comm_fraction=0.15,
    serial_fraction=0.03,
)


@dataclass
class SchedulerConfig:
    """All tunables of the workload manager and sharing machinery."""

    #: Registry name of the scheduling strategy.
    strategy: str = "easy_backfill"
    #: Seconds between timer-driven scheduler passes (0 = event-driven
    #: only; backfill strategies behave correctly either way because
    #: every submit/finish triggers a pass).
    backfill_interval: float = 0.0
    #: Walltime limit multiplier granted to shared placements, so a
    #: job is never killed for dilation the scheduler itself caused.
    walltime_grace: float = 2.0
    #: Minimum combined pair throughput for co-allocation.
    share_threshold: float = 1.1
    #: Ablation switch: accept all pairs regardless of predictions.
    pairing_oblivious: bool = False
    #: May a shareable job open idle nodes in shared mode?
    allow_open_shared: bool = True
    #: Interference model calibration.
    model_params: ModelParams = field(default_factory=ModelParams)
    #: Multifactor priority weights.
    priority_weights: PriorityWeights = field(default_factory=PriorityWeights)
    #: Profile for jobs with unknown applications.
    default_profile: ResourceProfile = DEFAULT_PROFILE
    #: Cancel (rather than reject with an error) jobs larger than the
    #: cluster — archive traces contain such submissions.
    reject_oversized: bool = False
    #: Prefer node sets spanning few racks (cf. SLURM's topology
    #: plugin).  Placement quality only matters when the execution
    #: model charges for locality (``rack_comm_penalty`` > 0).
    topology_aware: bool = False
    #: Slowdown per additional rack spanned, scaled by the app's
    #: communication fraction:
    #: ``rate *= 1 / (1 + penalty * comm_fraction * (racks - 1))``.
    #: 0 (default) disables locality effects entirely.
    rack_comm_penalty: float = 0.0
    #: Correct scheduling estimates with online per-user walltime
    #: predictions (Tsafrir-style).  Kill timers always use the raw
    #: requested limit regardless.
    use_walltime_prediction: bool = False
    #: How co-located jobs execute: ``"smt"`` (the paper's
    #: hyper-threading lanes) or ``"time_sliced"`` (gang-scheduling-
    #: style round robin; see repro.interference.timeslice).  With
    #: time slicing, set share_threshold below ``1 - switch_overhead``
    #: and walltime_grace above ``2 / (1 - switch_overhead)`` or no
    #: pair will qualify.
    sharing_mode: str = "smt"
    #: Context-switch overhead of time-sliced sharing.
    switch_overhead: float = 0.02
    #: Checkpoint/failure model; None (default) disables the
    #: resilience layer entirely.  A plain dict (e.g. from a campaign
    #: params payload) is converted via ResilienceConfig.from_dict.
    resilience: ResilienceConfig | None = None
    #: Crash-diagnostics settings (flight ring on, watchdogs off
    #: by default — inert on the happy path).  A plain dict (e.g. from
    #: a campaign params payload) is converted via
    #: DiagnosticsConfig.from_dict.
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    #: Telemetry settings (off by default; purely observational — the
    #: simulation's outputs are byte-identical either way).  A plain
    #: dict is converted via TelemetryConfig.from_dict.
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    def __post_init__(self) -> None:
        if isinstance(self.resilience, dict):
            self.resilience = ResilienceConfig.from_dict(self.resilience)
        if isinstance(self.diagnostics, dict):
            self.diagnostics = DiagnosticsConfig.from_dict(self.diagnostics)
        if isinstance(self.telemetry, dict):
            self.telemetry = TelemetryConfig.from_dict(self.telemetry)
        if self.backfill_interval < 0:
            raise ConfigError("backfill_interval must be >= 0")
        if self.walltime_grace < 1.0:
            raise ConfigError("walltime_grace must be >= 1.0")
        if self.share_threshold < 0:
            raise ConfigError("share_threshold must be >= 0")
        if self.rack_comm_penalty < 0:
            raise ConfigError("rack_comm_penalty must be >= 0")
        if self.sharing_mode not in ("smt", "time_sliced"):
            raise ConfigError(
                f"sharing_mode must be 'smt' or 'time_sliced', "
                f"got {self.sharing_mode!r}"
            )
        if not (0.0 <= self.switch_overhead < 1.0):
            raise ConfigError("switch_overhead must be in [0, 1)")


_SCHEDULER_TYPE_MAP = {
    "sched/builtin": "fcfs",
    "sched/backfill": "easy_backfill",
    "sched/conservative": "conservative",
    "sched/first_fit": "first_fit",
}


def parse_slurm_conf(text: str) -> tuple[SchedulerConfig, dict[str, int]]:
    """Parse slurm.conf-style text.

    Returns the scheduler configuration plus cluster-shape keyword
    arguments (``num_nodes``, ``cores``, ``memory_mb``,
    ``nodes_per_rack``) for :meth:`repro.cluster.Cluster.homogeneous`.

    Recognised keys (case-insensitive): NodeCount, CoresPerNode,
    MemoryMB, NodesPerRack, SchedulerType, Strategy, OverSubscribe,
    BackfillInterval, ShareThreshold, WalltimeGrace, PairingOblivious,
    PriorityWeightAge, PriorityWeightJobSize, PriorityWeightFairshare.
    """
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected Key=Value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().lower()] = value.strip()

    def pop_float(key: str, default: float) -> float:
        raw_value = values.pop(key, None)
        if raw_value is None:
            return default
        try:
            return float(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    def pop_int(key: str, default: int) -> int:
        return int(pop_float(key, float(default)))

    cluster_kwargs = {
        "num_nodes": pop_int("nodecount", 128),
        "cores": pop_int("corespernode", 32),
        "memory_mb": pop_int("memorymb", 128_000),
        "nodes_per_rack": pop_int("nodesperrack", 16),
    }

    strategy = values.pop("strategy", "")
    sched_type = values.pop("schedulertype", "")
    oversubscribe = values.pop("oversubscribe", "NO").upper()
    if not strategy:
        strategy = _SCHEDULER_TYPE_MAP.get(sched_type, "easy_backfill")
        if oversubscribe.startswith("YES"):
            # OverSubscribe turns the base algorithm into its sharing
            # extension, mirroring how the paper's patch activates.
            strategy = {
                "easy_backfill": "shared_backfill",
                "first_fit": "shared_first_fit",
            }.get(strategy, strategy)

    weights = PriorityWeights(
        age=pop_float("priorityweightage", 1000.0),
        size=pop_float("priorityweightjobsize", 200.0),
        fairshare=pop_float("priorityweightfairshare", 500.0),
    )
    config = SchedulerConfig(
        strategy=strategy,
        backfill_interval=pop_float("backfillinterval", 0.0),
        walltime_grace=pop_float("walltimegrace", 2.0),
        share_threshold=pop_float("sharethreshold", 1.1),
        pairing_oblivious=values.pop("pairingoblivious", "no").lower()
        in ("yes", "true", "1"),
        priority_weights=weights,
    )
    if values:
        raise ConfigError(f"unknown configuration keys: {sorted(values)}")
    return config, cluster_kwargs
