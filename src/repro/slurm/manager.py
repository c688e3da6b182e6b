"""The workload manager: ties engine, cluster, strategy and model.

This is the simulated counterpart of ``slurmctld``: it owns the
pending queue, invokes the scheduling strategy at the same decision
points the real daemon does (job submission, job completion, optional
timer), applies placements to the cluster, enforces walltime limits,
and writes accounting records.

It also owns the *execution* semantics the strategies are evaluated
under: every job progresses at the rate the interference model
assigns given its current co-runners, with exact remaining-work
updates at every allocation change (see DESIGN.md, "execution model").
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cluster.allocation import Allocation, AllocationKind
from repro.cluster.machine import Cluster
from repro.cluster.partition import Partition
from repro.core import selector
from repro.core.pairing import PairingPolicy
from repro.core.strategy import (
    Placement,
    ScheduleContext,
    Strategy,
    make_strategy,
    raise_release_bounds,
)
from repro.diagnostics.crash import attach_crash_info
from repro.engine.events import Event, EventKind
from repro.engine.simulator import Handlers, Simulator
from repro.errors import (
    AllocationError,
    ConfigError,
    ReproError,
    SchedulingError,
    SimulationError,
    WorkloadError,
)
from repro.interference.model import InterferenceModel
from repro.interference.profile import ResourceProfile
from repro.miniapps.suite import TRINITY_SUITE
from repro.observability.profiler import HotLoopProfiler
from repro.observability.trace import DecisionTrace
from repro.resilience import (
    NodeHealthTracker,
    ResilienceConfig,
    checkpoint_interval_for,
    eligible_rack_nodes,
    eligible_racks,
)
from repro.slurm.accounting import AccountingLog, JobRecord
from repro.slurm.config import SchedulerConfig
from repro.slurm.job import Job, JobState
from repro.slurm.priority import MultifactorPriority
from repro.slurm.predictor import WalltimePredictor
from repro.slurm.queue import PendingQueue
from repro.slurm.reservations import Reservation
from repro.workload.trace import WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.selector import ResidentGroup
    from repro.metrics.collector import MetricsCollector
    from repro.metrics.resilience import FailureRecord, ResilienceReport
    from repro.snapshot.auto import AutoSnapshotter

#: Labels of the lifecycle records, looked up per record instead of
#: read through the Python-level ``Enum.name`` property.
_STATE_LABELS = {state: state.name.lower() for state in JobState}
_KIND_LABELS = {kind: kind.name.lower() for kind in AllocationKind}

#: Relative tolerance for "the job's work is done" at a finish event.
_FINISH_TOLERANCE = 1e-6


@dataclass
class SimulationResult:
    """Everything a finished simulation exposes to analysis."""

    strategy: str
    cluster_nodes: int
    accounting: AccountingLog
    makespan: float
    first_submit: float
    events_dispatched: int
    scheduler_passes: int
    placements_applied: int
    wallclock_seconds: float
    collector: "MetricsCollector | None" = None
    notes: dict[str, float] = field(default_factory=dict)
    #: Failure/recovery summary; None unless resilience was enabled.
    resilience: "ResilienceReport | None" = None

    @property
    def completed_jobs(self) -> int:
        return sum(1 for r in self.accounting if r.state is JobState.COMPLETED)

    @property
    def timeout_jobs(self) -> int:
        return sum(1 for r in self.accounting if r.state is JobState.TIMEOUT)


class WorkloadManager:
    """Simulated batch-system control daemon."""

    def __init__(
        self,
        cluster: Cluster,
        config: SchedulerConfig | None = None,
        strategy: Strategy | None = None,
        collector: "MetricsCollector | None" = None,
        profiles: dict[str, ResourceProfile] | None = None,
        partitions: list[Partition] | None = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or SchedulerConfig()
        self.strategy = strategy or make_strategy(self.config.strategy)
        self.collector = collector
        if self.config.sharing_mode == "time_sliced":
            from repro.interference.timeslice import TimeSlicedModel

            self.model: InterferenceModel = TimeSlicedModel(
                self.config.switch_overhead
            )
        else:
            self.model = InterferenceModel(self.config.model_params)
        self.pairing = PairingPolicy(
            model=self.model,
            threshold=self.config.share_threshold,
            max_dilation=self.config.walltime_grace,
            oblivious=self.config.pairing_oblivious,
        )
        if profiles is None:
            # Both bundled suites resolve out of the box; unknown apps
            # fall back to config.default_profile.
            from repro.miniapps.nas import NAS_SUITE

            profiles = {name: app.profile for name, app in TRINITY_SUITE.items()}
            profiles.update(
                {name: app.profile for name, app in NAS_SUITE.items()}
            )
        self.profiles = profiles
        self.priority = MultifactorPriority(
            self.config.priority_weights, num_nodes=cluster.num_nodes
        )
        self.queue = PendingQueue(self.priority)
        self.jobs: dict[int, Job] = {}
        self.accounting = AccountingLog()
        #: Name and size of the loaded workload trace(s); carried in
        #: the manager (and therefore in snapshots) so a restored run
        #: can rebuild its result payload without the original trace.
        self.workload_name: str = ""
        self.workload_jobs: int = 0
        diag = self.config.diagnostics
        # Telemetry (all None when off — the zero-overhead contract).
        # The decision trace owns the run's metrics hub.
        telemetry = self.config.telemetry
        self.decisions: DecisionTrace | None = (
            DecisionTrace(path=telemetry.decisions_path)
            if telemetry.enabled
            else None
        )
        self.hot_profiler: HotLoopProfiler | None = (
            HotLoopProfiler() if telemetry.enabled and telemetry.profile else None
        )
        #: Resume provenance, stamped by snapshot restore (never part
        #: of result payloads — wall-clock facts are not deterministic).
        self.resume_count = 0
        self.restore_wall_s = 0.0
        sim_kwargs: dict = {
            "ring_size": diag.ring_size if diag.flight_recorder else None,
            "wall_clock_limit_s": diag.wall_clock_limit_s,
            "stall_event_limit": diag.stall_event_limit,
            "profiler": self.hot_profiler,
        }
        if diag.max_events is not None:
            sim_kwargs["max_events"] = diag.max_events
        self.sim = Simulator(**sim_kwargs)
        self.scheduler_passes = 0
        self.placements_applied = 0
        #: Node id -> latest walltime bound (start + effective limit)
        #: of the real jobs on it; nodes without one have no entry.
        #: Derived from the jobs and the cluster, like the cluster's
        #: indexes: never pickled, rebuilt on restore, compared with a
        #: scan by :meth:`check_indexes`.
        self._release_bounds: dict[int, float] = {}
        #: Running jobs by id (reservation phantoms excluded), and the
        #: resident group of each joinable one: the pass's
        #: ``ctx.running`` and the groups its availability view starts
        #: from.  Kept by :meth:`_start_job` and :meth:`_release`;
        #: derived like the release bounds.
        self._running: dict[int, Job] = {}
        self._groups: dict[int, ResidentGroup] = {}
        #: Bumped whenever the running set or a running job's rate
        #: changes, so a collector may reuse its last work-rate sum
        #: while it holds (derived; not pickled, 0 after a restore).
        self.rate_epoch = 0
        self._terminal_jobs = 0
        self._pass_requested_at: float | None = None
        if partitions is None:
            partitions = [
                Partition(
                    name="regular",
                    node_ids=tuple(range(cluster.num_nodes)),
                    default=True,
                )
            ]
        self.partitions: dict[str, Partition] = {p.name: p for p in partitions}
        self.reservations: list[Reservation] = []
        self._phantom_seq = 0
        self.resilience: ResilienceConfig | None = None
        self.health: NodeHealthTracker | None = None
        self._failure_rng: "object | None" = None
        self._rack_rng: "object | None" = None
        self._next_failure_event: Event | None = None
        self._next_rack_failure_event: Event | None = None
        self.failures_injected = 0
        self.rack_failures_injected = 0
        self.jobs_requeued = 0
        self.jobs_failed = 0
        self.failure_log: "list[FailureRecord]" = []
        #: Jobs held on an unfinished afterok dependency, keyed by the
        #: dependency's job id.
        self._dependents: dict[int, list[Job]] = {}
        #: Sharded replay: True while later trace windows remain to be
        #: registered via :meth:`extend`.  Keeps the periodic backfill
        #: chain and failure processes armed across idle gaps where
        #: every *currently loaded* job is terminal — exactly the
        #: state a monolithic run (with all jobs loaded) never enters.
        self.expect_more_work = False
        #: Job ids evicted by :meth:`compact_terminated` in a terminal
        #: non-COMPLETED state, so late afterok dependents still cancel
        #: identically to a monolithic run.
        self._evicted_failed: set[int] = set()
        self.predictor: WalltimePredictor | None = (
            WalltimePredictor() if self.config.use_walltime_prediction else None
        )

    def handlers(self) -> Handlers:
        """The engine's dispatch table: one bound method per event
        kind, built afresh by each :meth:`run` so the simulator never
        holds the manager (and a subclass's overrides are the ones
        dispatched)."""
        return {
            EventKind.JOB_SUBMIT: self._on_submit,
            EventKind.JOB_FINISH: self._on_finish,
            EventKind.JOB_TIMEOUT: self._on_timeout,
            EventKind.JOB_CANCEL: self._on_cancel,
            EventKind.SCHEDULER_PASS: self._on_scheduler_pass,
            EventKind.BACKFILL_PASS: self._on_backfill_tick,
            EventKind.CHECKPOINT: self._on_reservation_edge,
            EventKind.NODE_FAIL: self._on_node_fail,
            EventKind.NODE_REPAIR: self._on_node_repair,
        }

    # ------------------------------------------------------------------
    # Release bounds
    # ------------------------------------------------------------------
    def _scan_release_bounds(self) -> dict[int, float]:
        """The release bounds, computed from scratch by walking every
        allocated real job (reservation phantoms hold no bound)."""
        bounds: dict[int, float] = {}
        for job_id in self.cluster.running_job_ids():
            job = self.jobs.get(job_id)
            if job is None:
                continue
            raise_release_bounds(
                bounds, job.allocation.node_ids,
                job.start_time + job.effective_limit,
            )
        return bounds

    def _scan_running(self) -> dict[int, Job]:
        """The running jobs by id, from the cluster's allocations."""
        jobs = self.jobs
        return {
            job_id: jobs[job_id]
            for job_id in self.cluster.running_job_ids()
            if job_id in jobs  # exclude reservation phantoms
        }

    def _scan_groups(self) -> dict[int, ResidentGroup]:
        return selector.scan_groups(
            self.cluster, self._running, self.profile_of
        )

    def check_indexes(self) -> None:
        """Raise :class:`AllocationError` if the cluster's occupancy
        indexes, the release bounds, the running-job map or the
        resident groups differ from a full scan."""
        self.cluster.check_indexes()
        for name, kept, expected in (
            ("release bounds", self._release_bounds,
             self._scan_release_bounds()),
            ("running jobs", self._running, self._scan_running()),
            ("resident groups", self._groups, self._scan_groups()),
        ):
            if kept != expected:
                raise AllocationError(
                    f"{name} are stale: maintained {kept!r}, "
                    f"scan gives {expected!r}"
                )

    def _pass_release_bounds(self) -> dict[int, float] | None:
        """The node release bounds a pass reserves against, or None
        (scan the running jobs) when the walltime predictor moves the
        predicted ends with the clock."""
        return self._release_bounds if self.predictor is None else None

    def _pass_running(self) -> dict[int, Job]:
        """The running jobs a pass sees: the kept map itself, which
        the pass's own starts extend once the strategy has returned."""
        return self._running

    def _release(self, job: Job) -> None:
        """Free *job*'s nodes; the nodes it shared keep each co-runner's
        bound, restored once per co-runner, and a co-runner left with
        none is joinable again."""
        cluster = self.cluster
        left = cluster.release(job.job_id)
        del self._running[job.job_id]
        self.rate_epoch += 1
        groups = self._groups
        groups.pop(job.job_id, None)
        bounds = self._release_bounds
        for node_id in job.allocation.node_ids:
            del bounds[node_id]
        for other_id, node_ids in left.items():
            other = self.jobs[other_id]
            bounds.update(dict.fromkeys(
                node_ids, other.start_time + other.effective_limit
            ))
            if cluster.is_joinable(other_id):
                groups[other_id] = selector.resident_group(
                    cluster, other, self.profile_of(other)
                )

    def __getstate__(self) -> dict:
        # Before anything reaches a job: see PendingQueue.flush.
        self.queue.flush()
        state = self.__dict__.copy()
        for name in ("_release_bounds", "_running", "_groups", "rate_epoch"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        # Older snapshots also held the metrics hub in a manager slot;
        # their decision trace carries the same hub object.
        state.pop("hub", None)
        # setattr interns the names as pickle's default restore does,
        # so a restored manager pickles to the same bytes.
        for name, value in state.items():
            setattr(self, name, value)
        self._release_bounds = self._scan_release_bounds()
        self._running = self._scan_running()
        self._groups = self._scan_groups()
        self.rate_epoch = 0

    # ------------------------------------------------------------------
    # Loading work
    # ------------------------------------------------------------------
    def load(self, trace: WorkloadTrace) -> None:
        """Register a workload trace; submissions become events."""
        self.workload_name = trace.name
        self.workload_jobs += len(trace)
        for spec in trace:
            if spec.job_id in self.jobs:
                raise WorkloadError(f"job id {spec.job_id} already loaded")
            if spec.num_nodes > self.cluster.num_nodes:
                if not self.config.reject_oversized:
                    raise WorkloadError(
                        f"job {spec.job_id} requests {spec.num_nodes} nodes; "
                        f"cluster has {self.cluster.num_nodes} "
                        f"(set reject_oversized to drop such jobs)"
                    )
                continue
            partition = self.partitions.get(spec.partition)
            if partition is not None and not partition.allow_sharing and spec.shareable:
                # Per-partition OverSubscribe=NO overrides the flag.
                spec = spec.with_(shareable=False)
            job = Job(spec)
            self.jobs[spec.job_id] = job
            self.sim.schedule(spec.submit_time, EventKind.JOB_SUBMIT, job)
        self._check_dependency_cycles()
        if (
            self.config.backfill_interval > 0
            and self.strategy.wants_periodic_pass
            and self.jobs
        ):
            self.sim.schedule(
                self.config.backfill_interval, EventKind.BACKFILL_PASS, None
            )

    def extend(self, trace: WorkloadTrace) -> int:
        """Register additional jobs mid-run (sharded window replay).

        Identical to :meth:`load`'s registration — same oversize
        handling, same per-partition sharing override, same cycle
        check — but never (re)kicks the periodic BACKFILL_PASS chain:
        that chain was armed once by the first window's :meth:`load`
        and must keep its original phase for sharded replay to stay
        byte-identical to a monolithic run.  Returns the number of
        jobs registered.
        """
        self.workload_jobs += len(trace)
        added = 0
        for spec in trace:
            if spec.job_id in self.jobs:
                raise WorkloadError(f"job id {spec.job_id} already loaded")
            if spec.num_nodes > self.cluster.num_nodes:
                if not self.config.reject_oversized:
                    raise WorkloadError(
                        f"job {spec.job_id} requests {spec.num_nodes} nodes; "
                        f"cluster has {self.cluster.num_nodes} "
                        f"(set reject_oversized to drop such jobs)"
                    )
                continue
            partition = self.partitions.get(spec.partition)
            if partition is not None and not partition.allow_sharing and spec.shareable:
                spec = spec.with_(shareable=False)
            job = Job(spec)
            self.jobs[spec.job_id] = job
            self.sim.schedule(spec.submit_time, EventKind.JOB_SUBMIT, job)
            added += 1
        self._check_dependency_cycles()
        return added

    def compact_terminated(self) -> "list[JobRecord]":
        """Evict terminal jobs and drain their accounting records.

        The constant-memory half of sharded replay: called at each
        window boundary, it pops every terminal job from the live
        tables (so the manager — and its snapshots — stay O(active),
        not O(trace)) and hands back the drained records in
        termination order for the caller to flush columnar.  Ids that
        terminated in a non-COMPLETED state are remembered in
        :attr:`_evicted_failed` so afterok dependents submitted in
        later windows still cancel.
        """
        terminal_ids = [
            job_id
            for job_id, job in self.jobs.items()
            if job.state.is_terminal
        ]
        for job_id in terminal_ids:
            job = self.jobs.pop(job_id)
            if job.state is not JobState.COMPLETED:
                self._evicted_failed.add(job_id)
        self._terminal_jobs -= len(terminal_ids)
        return self.accounting.drain()

    def _check_dependency_cycles(self) -> None:
        """Reject dependency cycles, which could never be satisfied."""
        state: dict[int, int] = {}  # 0 = visiting, 1 = done

        for start in self.jobs:
            if start in state:
                continue
            chain: list[int] = []
            current = start
            while True:
                if state.get(current) == 1:
                    break
                if state.get(current) == 0:
                    raise WorkloadError(
                        f"dependency cycle involving job {current}"
                    )
                state[current] = 0
                chain.append(current)
                dep = self.jobs[current].spec.depends_on
                if dep < 0 or dep not in self.jobs:
                    break
                current = dep
            for job_id in chain:
                state[job_id] = 1

    # ------------------------------------------------------------------
    # Profiles and predictions
    # ------------------------------------------------------------------
    def profile_of(self, job: Job) -> ResourceProfile:
        return self.profiles.get(job.spec.app, self.config.default_profile)

    def predicted_end(self, job: Job) -> float:
        """End estimate for a running job, scheduler-legal information.

        Without prediction this is the walltime-based upper bound;
        with the predictor enabled it is the corrected estimate,
        clamped to the present (a job that outlives its prediction is
        simply expected to finish "any moment now") and never beyond
        the enforced limit.
        """
        if job.start_time is None:
            raise SchedulingError(f"job {job.job_id} has not started")
        bound = job.start_time + job.effective_limit
        if self.predictor is None:
            return bound
        grace = (
            self.config.walltime_grace
            if job.allocation is not None and job.allocation.is_shared
            else 1.0
        )
        predicted = job.start_time + self.predictor.predict(job) * grace
        return min(bound, max(predicted, self.sim.now))

    # ------------------------------------------------------------------
    # Execution model
    # ------------------------------------------------------------------
    def _job_rate(self, job: Job, co_runners: set[int]) -> float:
        """Current speed: bulk-synchronous jobs run at the rate of
        their slowest node (the worst of their *co_runners*, the
        distinct jobs sharing any of their nodes), scaled by the
        allocation's rack-locality factor (fixed at start)."""
        profile = self.profile_of(job)
        rate = 1.0
        for co_id in co_runners:
            co_profile = self.profile_of(self.jobs[co_id])
            rate = min(rate, self.model.speed(profile, co_profile))
        # Checkpoint writes steal wall time at a steady-state rate of
        # C/(tau+C); slowdown is 1.0 for non-checkpointing jobs.
        return rate * job.locality_factor * job.checkpoint_slowdown

    def _locality_factor(self, job: Job, node_ids: tuple[int, ...]) -> float:
        """Speed factor from rack spread (1.0 with the penalty off)."""
        racks = self.cluster.topology.racks_spanned(node_ids)
        job.racks_spanned = racks
        penalty = self.config.rack_comm_penalty
        if penalty <= 0.0 or racks <= 1:
            return 1.0
        comm = self.profile_of(job).comm_fraction
        return 1.0 / (1.0 + penalty * comm * (racks - 1))

    def _refresh_rate(self, job: Job) -> None:
        """Integrate progress, recompute the rate, reschedule finish."""
        profiler = self.hot_profiler
        if profiler is not None:
            started_ns = _wallclock.perf_counter_ns()
        now = self.sim.now
        job.integrate_progress(now, job.sharing_now)
        co_runners = self.cluster.jobs_sharing_with(job.job_id)
        job.sharing_now = bool(co_runners)
        job.corun_job_ids |= co_runners
        new_rate = self._job_rate(job, co_runners)
        finish = job.finish_event
        live = finish is not None and not finish.cancelled
        # An unchanged rate keeps the scheduled finish event.
        if not (live and abs(new_rate - job.rate) < 1e-12):
            if live:
                self.sim.cancel(finish)
            job.rate = new_rate
            self.rate_epoch += 1
            job.finish_event = self.sim.schedule(
                job.eta(now), EventKind.JOB_FINISH, job
            )
        if profiler is not None:
            profiler.record_phase(
                "interference", _wallclock.perf_counter_ns() - started_ns
            )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_submit(self, sim: Simulator, event: Event) -> None:
        job: Job = event.payload
        if job.state.is_terminal:
            return  # cancelled before submission took effect
        denial = self._admission_denial(job)
        if denial is not None:
            # SLURM rejects at submission; we record the job CANCELLED
            # so every loaded job still has an accounting record.
            if self.decisions is not None:
                code, message = denial
                self.decisions.reject(
                    sim.now, "admission", job.job_id, code, detail=message
                )
            self._cancel_terminal(job)
            return
        if self.decisions is not None:
            self.decisions.lifecycle(
                sim.now, job.job_id, "submitted", nodes=job.num_nodes
            )
        dep_id = job.spec.depends_on
        if dep_id >= 0:
            if dep_id in self.jobs:
                dependency = self.jobs[dep_id]
                if dependency.state is JobState.COMPLETED:
                    pass  # satisfied; fall through to queueing
                elif dependency.state.is_terminal:
                    # afterok on a failed job can never be satisfied.
                    self._cancel_terminal(job)
                    return
                else:
                    self._dependents.setdefault(dep_id, []).append(job)
                    return
            elif dep_id in self._evicted_failed:
                # The dependency terminated non-COMPLETED and was
                # compacted out of the live tables by a window
                # boundary; afterok can still never be satisfied.
                self._cancel_terminal(job)
                return
        self.queue.add(job)
        if self.collector is not None:
            self.collector.on_submit(sim.now, job, self)
        self._request_pass()

    def _cancel_terminal(self, job: Job) -> None:
        """Cancel a never-queued job and write its record."""
        job.mark_cancelled(self.sim.now)
        if self.decisions is not None:
            self.decisions.lifecycle(self.sim.now, job.job_id, "cancelled")
        self._terminal_jobs += 1
        self._maybe_disarm_failures()
        self.accounting.append(JobRecord.from_job(job))
        self._release_dependents(job)

    def _release_dependents(self, job: Job) -> None:
        """Resolve jobs held on *job*'s afterok dependency."""
        held = self._dependents.pop(job.job_id, None)
        if not held:
            return
        satisfied = job.state is JobState.COMPLETED
        for dependent in held:
            if dependent.state.is_terminal:
                continue  # e.g. scancelled while held
            denial = self._admission_denial(dependent) if satisfied else None
            if denial is not None:
                # Drains since submission may have shrunk the cluster
                # below the dependent's footprint.
                if self.decisions is not None:
                    code, message = denial
                    self.decisions.reject(
                        self.sim.now, "admission", dependent.job_id, code,
                        detail=message,
                    )
                self._cancel_terminal(dependent)
            elif satisfied:
                self.queue.add(dependent)
                if self.collector is not None:
                    self.collector.on_submit(self.sim.now, dependent, self)
            else:
                self._cancel_terminal(dependent)
        if satisfied:
            self._request_pass()

    def _admission_denial(self, job: Job) -> tuple[str, str] | None:
        """Why the job cannot be accepted, or None if admitted.

        Returns ``(reason_code, message)`` — the code is one of the
        admission entries in
        :data:`~repro.observability.REASON_CODES`, the message is the
        human-readable detail.
        """
        partition = self.partitions.get(job.spec.partition)
        if partition is None:
            return (
                "unknown_partition",
                f"unknown partition {job.spec.partition!r}",
            )
        ok, reason = partition.admits(job.num_nodes, job.spec.walltime_req)
        if not ok:
            return ("partition_limit", reason)
        smallest_node = self.cluster.min_memory_mb
        if job.spec.memory_mb_per_node > smallest_node:
            return (
                "node_memory",
                f"requested {job.spec.memory_mb_per_node:.0f} MB/node "
                f"exceeds node memory {smallest_node} MB",
            )
        if self.health is not None and self.health.drained:
            capacity = self.cluster.num_nodes - len(self.health.drained)
            if job.num_nodes > capacity:
                return (
                    "avoid_nodes",
                    f"needs {job.num_nodes} nodes but only {capacity} "
                    f"remain in service after drains",
                )
        return None

    def _on_finish(self, sim: Simulator, event: Event) -> None:
        job: Job = event.payload
        if event is not job.finish_event:
            raise SimulationError(
                f"stale finish event fired for job {job.job_id}"
            )
        job.integrate_progress(sim.now, job.sharing_now)
        if job.remaining_work > _FINISH_TOLERANCE * job.spec.runtime_exclusive + 1e-6:
            raise SimulationError(
                f"job {job.job_id} finish event fired with "
                f"{job.remaining_work:.6f}s of work remaining"
            )
        self._end_job(job, JobState.COMPLETED)

    def _on_timeout(self, sim: Simulator, event: Event) -> None:
        job: Job = event.payload
        if event is not job.timeout_event:
            raise SimulationError(
                f"stale timeout event fired for job {job.job_id}"
            )
        job.integrate_progress(sim.now, job.sharing_now)
        self._end_job(job, JobState.TIMEOUT)

    def _on_cancel(self, sim: Simulator, event: Event) -> None:
        job: Job = event.payload
        if job.state.is_terminal:
            return  # raced with completion; nothing to do
        if job.is_pending:
            if job in self.queue:
                self.queue.remove(job)
            job.mark_cancelled(sim.now)
            self._terminal_jobs += 1
            self._maybe_disarm_failures()
            self.accounting.append(JobRecord.from_job(job))
            self._release_dependents(job)
            self._request_pass()  # queue head may have changed
            return
        job.integrate_progress(sim.now, job.sharing_now)
        self._end_job(job, JobState.CANCELLED)

    def cancel_job(self, job_id: int, at: float) -> None:
        """Schedule an ``scancel`` of *job_id* at simulated time *at*."""
        if job_id not in self.jobs:
            raise WorkloadError(f"job {job_id} is not loaded")
        self.sim.schedule(at, EventKind.JOB_CANCEL, self.jobs[job_id])

    # ------------------------------------------------------------------
    # Maintenance reservations
    # ------------------------------------------------------------------
    def add_reservation(self, reservation: Reservation) -> None:
        """Register a maintenance window (best-effort drain; see
        :mod:`repro.slurm.reservations`)."""
        self.reservations.append(reservation)
        self.sim.schedule(
            reservation.start, EventKind.CHECKPOINT, ("res_start", reservation)
        )
        self.sim.schedule(
            reservation.end, EventKind.CHECKPOINT, ("res_end", reservation)
        )

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def enable_resilience(self, config: ResilienceConfig) -> None:
        """Activate the resilience layer for this simulation.

        Call after :meth:`load` and before :meth:`run`.  Arms the
        configured failure processes, assigns checkpoint intervals to
        the loaded jobs, and installs the health tracker.  Failure
        processes stop re-arming once every job is terminal, so the
        simulation still ends.
        """
        import numpy as np

        if self.resilience is not None:
            raise ConfigError("resilience already enabled")
        self.resilience = config
        self.priority.requeue_backoff = config.requeue_priority_backoff
        for job in self.jobs.values():
            tau = checkpoint_interval_for(config, job.num_nodes)
            if tau is not None:
                job.checkpoint_tau = tau
                job.checkpoint_overhead = config.checkpoint_overhead_s
        if config.any_failures:
            self.health = NodeHealthTracker(
                blacklist_failures=config.blacklist_failures,
                window_s=config.blacklist_window_hours * 3600.0,
            )
        if config.node_mtbf_hours is not None:
            self._failure_rng = np.random.default_rng(config.seed)
            self._schedule_next_failure()
        if config.rack_mtbf_hours is not None:
            # Independent deterministic stream so the rack process does
            # not perturb the node process's draw sequence.
            self._rack_rng = np.random.default_rng([config.seed, 0x7ACC])
            self._schedule_next_rack_failure()

    def _schedule_next_failure(self) -> None:
        assert self.resilience is not None and self._failure_rng is not None
        mean = self.resilience.node_interarrival_seconds(
            self.cluster.num_nodes
        )
        delay = float(self._failure_rng.exponential(mean))  # type: ignore[attr-defined]
        self._next_failure_event = self.sim.schedule_in(
            delay, EventKind.NODE_FAIL, "node"
        )

    def _schedule_next_rack_failure(self) -> None:
        assert self.resilience is not None and self._rack_rng is not None
        mean = self.resilience.rack_interarrival_seconds(
            self.cluster.topology.num_racks
        )
        delay = float(self._rack_rng.exponential(mean))  # type: ignore[attr-defined]
        self._next_rack_failure_event = self.sim.schedule_in(
            delay, EventKind.NODE_FAIL, "rack"
        )

    def _maybe_disarm_failures(self) -> None:
        """Cancel pending failures once no job can be affected, so the
        simulation clock is not dragged to a far-future event."""
        if self._terminal_jobs < len(self.jobs) or self.expect_more_work:
            return
        if self._next_failure_event is not None:
            self.sim.cancel(self._next_failure_event)
            self._next_failure_event = None
        if self._next_rack_failure_event is not None:
            self.sim.cancel(self._next_rack_failure_event)
            self._next_rack_failure_event = None

    def _on_node_fail(self, sim: Simulator, event: Event) -> None:
        process: str = event.payload
        if process == "rack":
            self._next_rack_failure_event = None
        else:
            self._next_failure_event = None
        if self._terminal_jobs >= len(self.jobs) and not self.expect_more_work:
            return  # nothing left to disturb
        if process == "rack":
            self._inject_rack_failure()
        else:
            self._inject_node_failure()
        if self._terminal_jobs < len(self.jobs) or self.expect_more_work:
            if process == "rack":
                self._schedule_next_rack_failure()
            else:
                self._schedule_next_failure()

    def _inject_node_failure(self) -> None:
        assert self._failure_rng is not None
        # Candidates: up nodes not held by a reservation phantom.
        candidates = [
            node
            for node in self.cluster.nodes
            if not node.down
            and all(occ in self.jobs for occ in node.occupant_ids)
        ]
        if not candidates:
            return
        index = int(self._failure_rng.integers(len(candidates)))  # type: ignore[attr-defined]
        self._fail_nodes([candidates[index]], kind="node")

    def _inject_rack_failure(self) -> None:
        assert self._rack_rng is not None
        real_ids = set(self.jobs)
        racks = eligible_racks(self.cluster, real_ids)
        if not racks:
            return
        index = int(self._rack_rng.integers(len(racks)))  # type: ignore[attr-defined]
        nodes = eligible_rack_nodes(self.cluster, racks[index], real_ids)
        self._fail_nodes(nodes, kind="rack")

    def _fail_nodes(self, nodes: list, kind: str) -> None:
        """Take *nodes* down together: evict victims, start repairs."""
        from repro.metrics.resilience import FailureRecord

        now = self.sim.now
        self.failures_injected += 1
        if kind == "rack":
            self.rack_failures_injected += 1
        victim_ids: list[int] = []
        seen: set[int] = set()
        for node in nodes:
            for job_id in node.occupant_ids:
                if job_id not in seen:
                    seen.add(job_id)
                    victim_ids.append(job_id)
        lost_node_seconds = 0.0
        failed_ids: list[int] = []
        for job_id in victim_ids:
            lost_node_seconds += self._evict_for_failure(
                self.jobs[job_id], failed_ids
            )
        repair = (
            self.resilience.repair_seconds
            if self.resilience is not None
            else 0.0
        )
        for node in nodes:
            self.cluster.mark_down(node.node_id)
            self.cluster.mark_repairing(node.node_id)
            if self.health is not None:
                self.health.record_failure(node.node_id, now)
            self.sim.schedule_in(repair, EventKind.NODE_REPAIR, node.node_id)
        self.failure_log.append(
            FailureRecord(
                time=now,
                kind=kind,
                node_ids=tuple(node.node_id for node in nodes),
                evicted_job_ids=tuple(victim_ids),
                failed_job_ids=tuple(failed_ids),
                lost_node_seconds=lost_node_seconds,
            )
        )
        if self.decisions is not None:
            self.decisions.event(
                now, f"{kind}_fail",
                nodes=[node.node_id for node in nodes],
                evicted=victim_ids, failed=failed_ids,
                lost_node_s=lost_node_seconds,
            )
        self._request_pass()

    def _evict_for_failure(self, job: Job, failed_ids: list[int]) -> float:
        """Evict a running job whose node failed.

        Requeues it (resuming from its last checkpoint, if any) or —
        once the requeue budget is exhausted — fails it terminally.
        Returns the progress discarded, in node-seconds.
        """
        now = self.sim.now
        job.integrate_progress(now, job.sharing_now)
        if job.finish_event is not None:
            self.sim.cancel(job.finish_event)
        if job.timeout_event is not None:
            self.sim.cancel(job.timeout_event)
        affected = self.cluster.jobs_sharing_with(job.job_id)
        self._release(job)
        # Refresh surviving co-runners before any collector callback
        # samples the cluster: their shared lanes just emptied.
        for other_id in sorted(affected):
            if self.jobs[other_id].is_running:
                self._refresh_rate(self.jobs[other_id])
        max_requeues = (
            self.resilience.max_requeues
            if self.resilience is not None
            else None
        )
        if max_requeues is not None and job.requeues >= max_requeues:
            lost = job.progress
            job.mark_failed(now)
            if self.decisions is not None:
                self.decisions.lifecycle(
                    now, job.job_id, "failed", requeues=job.requeues
                )
            failed_ids.append(job.job_id)
            self.jobs_failed += 1
            self._terminal_jobs += 1
            self._maybe_disarm_failures()
            record = JobRecord.from_job(job)
            self.accounting.append(record)
            self.priority.charge(job.spec.user, record.node_seconds_allocated)
            self._release_dependents(job)
            if self.collector is not None:
                self.collector.on_job_end(now, record, self)
        else:
            saved = job.checkpointed_progress()
            lost = job.progress - saved
            job.mark_requeued(now, saved=saved)
            if self.decisions is not None:
                self.decisions.lifecycle(
                    now, job.job_id, "requeued", saved_s=saved, lost_s=lost
                )
            self.jobs_requeued += 1
            self.queue.add(job)
        return lost * job.num_nodes

    def _on_node_repair(self, sim: Simulator, event: Event) -> None:
        node = self.cluster.node(event.payload)
        if self.health is not None and self.health.should_drain(
            node.node_id, sim.now
        ):
            self.cluster.mark_drained(node.node_id)
            self.health.mark_drained(node.node_id)
            if self.decisions is not None:
                self.decisions.event(sim.now, "node_drain", node=node.node_id)
            self._cancel_unsatisfiable()
        else:
            self.cluster.mark_up(node.node_id)
            if self.decisions is not None:
                self.decisions.event(sim.now, "node_repair", node=node.node_id)
            self._request_pass()
        if self.collector is not None:
            self.collector.on_sample(sim.now, self)

    def _cancel_unsatisfiable(self) -> None:
        """Cancel pending jobs larger than the non-drained capacity.

        Without this, draining nodes could deadlock the simulation: a
        queued job needing more nodes than will ever return to service
        would wait forever.
        """
        capacity = self.cluster.num_nodes - (
            len(self.health.drained) if self.health is not None else 0
        )
        for job in [j for j in self.queue if j.num_nodes > capacity]:
            self.queue.remove(job)
            self._cancel_terminal(job)
        for held in list(self._dependents.values()):
            for job in list(held):
                if job.num_nodes > capacity and not job.state.is_terminal:
                    self._cancel_terminal(job)

    def _on_reservation_edge(self, sim: Simulator, event: Event) -> None:
        kind, reservation = event.payload
        if self.decisions is not None:
            self.decisions.event(
                sim.now, kind, reservation=reservation.name,
                nodes=reservation.num_nodes,
            )
        if kind == "res_start":
            granted = self.cluster.idle_node_ids()[: reservation.num_nodes]
            reservation.shortfall = reservation.num_nodes - len(granted)
            reservation.granted_node_ids = tuple(granted)
            if granted:
                self._phantom_seq -= 1
                phantom_id = self._phantom_seq
                self.cluster.allocate(
                    self.cluster.build_exclusive(phantom_id, granted)
                )
                # Stash the phantom id on the reservation for release.
                reservation._phantom_id = phantom_id  # type: ignore[attr-defined]
        elif kind == "res_end":
            phantom_id = getattr(reservation, "_phantom_id", None)
            if phantom_id is not None and self.cluster.has_allocation(phantom_id):
                self.cluster.release(phantom_id)
                reservation.granted_node_ids = ()
            self._request_pass()
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown checkpoint payload {kind!r}")
        if self.collector is not None:
            self.collector.on_sample(sim.now, self)

    def _end_job(self, job: Job, final_state: JobState) -> None:
        now = self.sim.now
        if job.finish_event is not None:
            self.sim.cancel(job.finish_event)
            job.finish_event = None
        if job.timeout_event is not None:
            self.sim.cancel(job.timeout_event)
            job.timeout_event = None
        affected = self.cluster.jobs_sharing_with(job.job_id)
        self._release(job)
        if final_state is JobState.COMPLETED:
            job.mark_completed(now)
        elif final_state is JobState.CANCELLED:
            job.mark_cancelled(now)
        else:
            job.mark_timeout(now)
        self._terminal_jobs += 1
        self._maybe_disarm_failures()
        record = JobRecord.from_job(job)
        self.accounting.append(record)
        if self.decisions is not None:
            self.decisions.lifecycle(
                now, job.job_id, _STATE_LABELS[final_state],
                shared=record.was_shared,
            )
            self.decisions.hub.observe("job.wait_s", record.wait_time)
            self.decisions.hub.observe("job.run_s", record.run_time)
        self.priority.charge(job.spec.user, record.node_seconds_allocated)
        if self.predictor is not None and final_state is JobState.COMPLETED:
            self.predictor.observe(
                job.spec.user, record.run_time, job.spec.walltime_req
            )
        for other_id in sorted(affected):
            self._refresh_rate(self.jobs[other_id])
        self._release_dependents(job)
        if self.collector is not None:
            self.collector.on_job_end(now, record, self)
        self._request_pass()

    def _on_backfill_tick(self, sim: Simulator, event: Event) -> None:
        if self.decisions is not None:
            self.decisions.event(sim.now, "backfill_tick")
        self._request_pass()
        if self._terminal_jobs < len(self.jobs) or self.expect_more_work:
            sim.schedule_in(
                self.config.backfill_interval, EventKind.BACKFILL_PASS, None
            )

    def _request_pass(self) -> None:
        """Coalesce all same-timestamp triggers into one pass."""
        if self._pass_requested_at == self.sim.now:
            return
        self._pass_requested_at = self.sim.now
        self.sim.schedule(self.sim.now, EventKind.SCHEDULER_PASS, None)

    def _on_scheduler_pass(self, sim: Simulator, event: Event) -> None:
        self._pass_requested_at = None
        self.scheduler_passes += 1
        if not self.queue:
            if self.decisions is not None:
                self.decisions.span(
                    sim.now, "scheduler_pass", pending=0, placed=0
                )
            return
        running = self._pass_running()
        avoid: frozenset[int] = frozenset()
        if (
            self.health is not None
            and self.health.blacklist_failures is not None
        ):
            avoid = self.health.suspect_nodes(sim.now)
        pending = self.queue.ordered(sim.now)
        ctx = ScheduleContext(
            now=sim.now,
            cluster=self.cluster,
            pending=pending,
            running=running,
            profile_of=self.profile_of,
            predicted_end=self.predicted_end,
            pairing=self.pairing,
            walltime_grace=self.config.walltime_grace,
            allow_open_shared=self.config.allow_open_shared,
            topology_aware=self.config.topology_aware,
            predict_runtime=(
                self.predictor.predict if self.predictor is not None else None
            ),
            avoid_nodes=avoid,
            decisions=self.decisions,
            release_bounds=self._pass_release_bounds(),
            groups=self._groups,
        )
        profiler = self.hot_profiler
        if profiler is not None:
            started_ns = _wallclock.perf_counter_ns()
        placements = self.strategy.schedule(ctx)
        # The view refers back to the context: drop it, so reference
        # counting frees the pass's objects.
        ctx.view = None
        was_running = len(running)
        if profiler is not None:
            placed_ns = _wallclock.perf_counter_ns()
            profiler.record_phase("placement", placed_ns - started_ns)
        for placement in placements:
            self._start_job(placement)
        if profiler is not None:
            applied_ns = _wallclock.perf_counter_ns()
            profiler.record_phase("dispatch", applied_ns - placed_ns)
        if placements and self.collector is not None:
            self.collector.on_sample(sim.now, self)
            if profiler is not None:
                profiler.record_phase("metrics", _wallclock.perf_counter_ns() - applied_ns)
        if self.decisions is not None:
            self.decisions.span(
                sim.now, "scheduler_pass",
                pending=len(pending), running=was_running,
                placed=len(placements),
            )
            hub = self.decisions.hub
            hub.set_gauge("queue.pending", len(self.queue))
            hub.set_gauge("cluster.running", was_running)

    # ------------------------------------------------------------------
    # Starting jobs
    # ------------------------------------------------------------------
    def _start_job(self, placement: Placement) -> None:
        job = placement.job
        now = self.sim.now
        self.queue.remove(job)
        if placement.kind is AllocationKind.EXCLUSIVE:
            request = self.cluster.build_exclusive(job.job_id, placement.node_ids)
        else:
            request = self.cluster.build_shared(job.job_id, placement.node_ids)
        allocation: Allocation = self.cluster.allocate(request)
        job.mark_started(now, allocation)
        job.locality_factor = self._locality_factor(job, allocation.node_ids)
        if placement.kind is AllocationKind.SHARED:
            job.effective_limit = job.spec.walltime_req * self.config.walltime_grace
        else:
            job.effective_limit = job.spec.walltime_req
        # Rate under the co-runners present right now.
        co_runners = self.cluster.jobs_sharing_with(job.job_id)
        self._running[job.job_id] = job
        self.rate_epoch += 1
        if placement.kind is AllocationKind.SHARED:
            # A resident joined has a co-runner now; a job that joined
            # none is a resident others may join.
            groups = self._groups
            if co_runners:
                for other_id in co_runners:
                    groups.pop(other_id, None)
            else:
                groups[job.job_id] = selector.resident_group(
                    self.cluster, job, self.profile_of(job)
                )
        # Every node's bound is now the job's, except where a resident
        # it joined holds a later one: set outright, then raised once
        # per such resident.
        end = now + job.effective_limit
        bounds = self._release_bounds
        bounds.update(dict.fromkeys(allocation.node_ids, end))
        for other_id in co_runners:
            other = self.jobs[other_id]
            bound = other.start_time + other.effective_limit
            if bound > end:
                bounds.update(dict.fromkeys(
                    self.cluster.shared_node_ids(job.job_id, other_id), bound
                ))
        job.sharing_now = bool(co_runners)
        job.corun_job_ids |= co_runners
        job.rate = self._job_rate(job, co_runners)
        job.finish_event = self.sim.schedule(job.eta(now), EventKind.JOB_FINISH, job)
        job.timeout_event = self.sim.schedule(
            now + job.effective_limit, EventKind.JOB_TIMEOUT, job
        )
        # Joining a lane changes the resident's rate.
        for other_id in sorted(co_runners):
            self._refresh_rate(self.jobs[other_id])
        self.placements_applied += 1
        if self.decisions is not None:
            self.decisions.lifecycle(
                now, job.job_id, "started",
                kind=_KIND_LABELS[placement.kind], nodes=len(placement.node_ids),
            )
        if self.collector is not None:
            self.collector.on_start(now, job, self)

    # ------------------------------------------------------------------
    # Telemetry export
    # ------------------------------------------------------------------
    def telemetry_summary(self) -> dict[str, object] | None:
        """JSON-ready telemetry sections, or None with telemetry off.

        Nondeterministic by nature (the profile holds wall-clock);
        callers must keep this OUT of result payloads and store
        records — it belongs in ``--json`` extras and sidecar files.
        """
        if self.decisions is None:
            return None
        summary: dict[str, object] = {
            "metrics": self.decisions.hub.as_dict(),
            "decisions": self.decisions.summary(),
        }
        if self.hot_profiler is not None:
            summary["profile"] = self.hot_profiler.as_dict()
        return summary

    # ------------------------------------------------------------------
    # Snapshot / restore (see repro.snapshot)
    # ------------------------------------------------------------------
    def snapshot(self, path, spec_hash: str | None = None):
        """Atomically persist this manager's complete state to *path*.

        Captures the event heap, RNG bit-generator states, cluster and
        allocation occupancy, queue/accounting/metric state — the
        whole simulation world — so :meth:`restore` + :meth:`run`
        continues byte-identically to an uninterrupted run.
        """
        from repro.snapshot.state import write_snapshot

        return write_snapshot(self, path, spec_hash=spec_hash)

    @classmethod
    def restore(cls, path, expect_spec_hash: str | None = None):
        """Rebuild a manager from a snapshot file (verified first)."""
        from repro.errors import SnapshotError
        from repro.snapshot.state import read_snapshot

        manager = read_snapshot(path, expect_spec_hash=expect_spec_hash)
        if not isinstance(manager, cls):
            raise SnapshotError(
                f"{path}: snapshot holds a {type(manager).__name__}, "
                f"not a {cls.__name__}",
                reason="format",
            )
        return manager

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _drop_pause_sample(self) -> None:
        """A run paused at ``until`` ends with a metrics sample taken
        after the last event, which splits the interval it falls in;
        a run that continues drops it, so that its series and summary
        equal those of a run never paused.  The pause sample is the one
        later than the last dispatched event."""
        collector, last = self.collector, self.sim.last_event_time
        if (collector is not None and collector.times and last is not None
                and collector.times[-1] > last):
            collector.drop_last_sample()

    def run(
        self,
        until: float | None = None,
        *,
        suspend_poll: Callable[[], bool] | None = None,
        snapshotter: "AutoSnapshotter | None" = None,
    ) -> SimulationResult:
        """Run the simulation to completion (or to *until*) and
        summarise it.  *suspend_poll* and *snapshotter* are passed to
        :meth:`Simulator.run` for this call only."""
        from repro.metrics.resilience import resilience_report

        started = _wallclock.perf_counter()
        self._drop_pause_sample()
        try:
            self.sim.run(
                self.handlers(), until,
                suspend_poll=suspend_poll, snapshotter=snapshotter,
            )
            unfinished = len(self.jobs) - self._terminal_jobs
            if unfinished and until is None:
                raise SimulationError(
                    f"simulation drained its event heap with {unfinished} "
                    f"jobs unfinished — scheduling deadlock"
                )
        except ReproError as exc:
            # Pin the flight ring's records and a state snapshot onto
            # the escaping error so callers can serialise a replay
            # bundle (see repro.diagnostics).
            attach_crash_info(exc, manager=self)
            raise
        elapsed = _wallclock.perf_counter() - started
        if self.decisions is not None:
            self.decisions.close()
            hub = self.decisions.hub
            hub.inc("sim.runs")
            hub.set_gauge(
                "sim.events_dispatched", float(self.sim.events_dispatched)
            )
            hub.set_gauge("sim.scheduler_passes", float(self.scheduler_passes))
        ends = [r.end_time for r in self.accounting]
        submits = [j.spec.submit_time for j in self.jobs.values()]
        makespan = (max(ends) - min(submits)) if ends else 0.0
        if self.collector is not None:
            self.collector.on_sim_end(self.sim.now, self)
        return SimulationResult(
            strategy=self.strategy.name,
            cluster_nodes=self.cluster.num_nodes,
            accounting=self.accounting,
            makespan=makespan,
            first_submit=min(submits) if submits else 0.0,
            events_dispatched=self.sim.events_dispatched,
            scheduler_passes=self.scheduler_passes,
            placements_applied=self.placements_applied,
            wallclock_seconds=elapsed,
            collector=self.collector,
            resilience=(
                resilience_report(self) if self.resilience is not None else None
            ),
        )


def build_manager(
    trace: WorkloadTrace,
    num_nodes: int = 128,
    strategy: str | Strategy = "easy_backfill",
    config: SchedulerConfig | None = None,
    collect_metrics: bool = True,
) -> WorkloadManager:
    """Construct a ready-to-run manager exactly as :func:`run_simulation`
    would — the shared build path that keeps direct runs, campaign
    workers, and snapshot-resumed runs on identical state."""
    from repro.metrics.collector import MetricsCollector

    if config is None:
        config = SchedulerConfig(
            strategy=strategy if isinstance(strategy, str) else strategy.name
        )
    cluster = Cluster.homogeneous(num_nodes)
    strategy_obj = (
        strategy if isinstance(strategy, Strategy) else make_strategy(strategy)
    )
    collector = MetricsCollector(cluster) if collect_metrics else None
    manager = WorkloadManager(
        cluster, config=config, strategy=strategy_obj, collector=collector
    )
    manager.load(trace)
    if config.resilience is not None:
        manager.enable_resilience(config.resilience)
    return manager


def run_simulation(
    trace: WorkloadTrace,
    num_nodes: int = 128,
    strategy: str | Strategy = "easy_backfill",
    config: SchedulerConfig | None = None,
    collect_metrics: bool = True,
) -> SimulationResult:
    """One-call convenience API: simulate *trace* under a strategy.

    This is the function the examples and benchmarks build on.
    """
    return build_manager(
        trace,
        num_nodes=num_nodes,
        strategy=strategy,
        config=config,
        collect_metrics=collect_metrics,
    ).run()
