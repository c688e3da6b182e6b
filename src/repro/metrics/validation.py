"""A metrics collector that doubles as a runtime invariant checker.

:class:`ValidatingCollector` verifies, at every sampled state change,
the structural invariants the whole study rests on.  It is used by the
randomised property tests (any workload × any strategy must satisfy
them) and is handy when developing new strategies: plug it into a
:class:`~repro.slurm.manager.WorkloadManager` and violations surface
at the moment they happen instead of as corrupted end-state metrics.

Checked invariants
------------------
* node accounting: busy + idle node counts equal the cluster size;
* occupancy: exclusive nodes host exactly one job, shared nodes at
  most two distinct jobs;
* allocation consistency: every node occupant holds a cluster
  allocation covering that node, and vice versa;
* execution sanity: every running job has state RUNNING, a rate in
  (0, 1], and non-negative remaining work; a job's rate is 1.0
  exactly when it has no co-runner on any node;
* queue sanity: queued jobs are PENDING and hold no allocation;
* engine indexes: every occupancy index the cluster maintains
  incrementally, and the manager's per-node release bounds,
  running-job map and resident groups, equal a full scan
  (:meth:`WorkloadManager.check_indexes`);
* kept work rate: every sampled work rate, reused or summed, equals a
  fresh sum over the running jobs;
* lazy priorities: at every start, inside the pass that ordered the
  queue and before any fairshare charge, the started job's priority
  and, after a flush, every queued job's equal what an eager
  :meth:`MultifactorPriority.order_terms` writes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.node import SMT_LANES, NodeMode
from repro.errors import AllocationError, SimulationError
from repro.metrics.collector import MetricsCollector
from repro.slurm.priority import MultifactorPriority

if TYPE_CHECKING:  # pragma: no cover
    from repro.slurm.job import Job
    from repro.slurm.manager import WorkloadManager


class ValidatingCollector(MetricsCollector):
    """MetricsCollector that asserts system invariants on every sample."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.checks = 0
        self.priority_checks = 0

    def _sample(self, now: float, manager: "WorkloadManager") -> None:
        self._check(now, manager)
        super()._sample(now, manager)
        fresh = self.work_rate(manager)
        if self.work_rates[-1] != fresh:
            self._fail(
                now, f"sampled work rate {self.work_rates[-1]!r} differs "
                f"from a fresh sum {fresh!r}"
            )

    def on_start(self, now: float, job: "Job", manager: "WorkloadManager") -> None:
        self._check_priorities(now, job, manager)
        super().on_start(now, job, manager)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _fail(self, now: float, message: str) -> None:
        raise SimulationError(f"invariant violated at t={now:.3f}: {message}")

    def _check_priorities(
        self, now: float, started: "Job", manager: "WorkloadManager"
    ) -> None:
        """A start happens inside the pass that ordered the queue at
        *now*, before anything is charged: the started job's priority,
        written as it left the queue, and every queued job's after a
        flush must be what an eager write-back at *now* writes."""
        self.priority_checks += 1
        queue, priority = manager.queue, manager.priority
        written = started.priority
        queue.flush()
        jobs = [started, *queue]
        kept = [written] + [job.priority for job in jobs[1:]]
        MultifactorPriority.order_terms(priority, map(priority.terms, jobs), now)
        eager = [job.priority for job in jobs]
        if kept != eager:
            self._fail(
                now, f"lazy priorities {kept!r} differ from an eager "
                f"write-back {eager!r} (jobs {[j.job_id for j in jobs]})"
            )

    def _check(self, now: float, manager: "WorkloadManager") -> None:
        self.checks += 1
        cluster = self.cluster
        try:
            manager.check_indexes()
        except AllocationError as exc:
            self._fail(now, str(exc))
        busy = 0
        down = 0
        occupants_by_job: dict[int, set[int]] = {}
        for node in cluster.nodes:
            occupants = node.occupant_ids
            if occupants:
                busy += 1
            if node.down:
                down += 1
                if occupants:
                    self._fail(now, f"down node {node.node_id} has occupants")
            if node.mode is NodeMode.IDLE and occupants:
                self._fail(now, f"idle node {node.node_id} has occupants")
            if node.mode is NodeMode.EXCLUSIVE and len(occupants) != 1:
                self._fail(
                    now, f"exclusive node {node.node_id} hosts {len(occupants)} jobs"
                )
            if len(occupants) > SMT_LANES:
                self._fail(now, f"node {node.node_id} oversubscribed: {occupants}")
            if len(set(occupants)) != len(occupants):
                self._fail(now, f"node {node.node_id} hosts a job twice")
            for job_id in occupants:
                occupants_by_job.setdefault(job_id, set()).add(node.node_id)
            if len(occupants) == 2:
                known = [
                    manager.jobs[j].spec.memory_mb_per_node
                    for j in occupants
                    if j in manager.jobs
                ]
                if (
                    len(known) == 2
                    and all(m > 0 for m in known)
                    and sum(known) > node.memory_mb + 1e-6
                ):
                    self._fail(
                        now,
                        f"node {node.node_id} memory oversubscribed: "
                        f"{known} MB on a {node.memory_mb} MB node",
                    )

        if busy + down + cluster.num_idle() != cluster.num_nodes:
            self._fail(now, "busy + down + idle != total nodes")

        for job_id, node_set in occupants_by_job.items():
            if not cluster.has_allocation(job_id):
                self._fail(now, f"job {job_id} occupies nodes without allocation")
            allocation = cluster.allocation_of(job_id)
            if set(allocation.node_ids) != node_set:
                self._fail(
                    now,
                    f"job {job_id} allocation {allocation.node_ids} does not "
                    f"match node occupancy {sorted(node_set)}",
                )

        for job_id in cluster.running_job_ids():
            job = manager.jobs.get(job_id)
            if job is None:
                continue  # reservation phantom
            if not job.is_running:
                self._fail(now, f"allocated job {job_id} is {job.state.value}")
            if not (0.0 < job.rate <= 1.0):
                self._fail(now, f"job {job_id} rate {job.rate} out of (0, 1]")
            if job.remaining_work < -1e-9:
                self._fail(now, f"job {job_id} negative remaining work")
            has_corunner = bool(cluster.jobs_sharing_with(job_id))
            solo_rate = job.locality_factor * job.checkpoint_slowdown
            if not has_corunner and abs(job.rate - solo_rate) > 1e-12:
                self._fail(
                    now,
                    f"job {job_id} alone on its nodes but rate={job.rate} != "
                    f"locality x checkpoint factor {solo_rate} (the "
                    f"zero-overhead property of sharing itself)",
                )

        for job in manager.queue:
            if not job.is_pending:
                self._fail(now, f"queued job {job.job_id} is {job.state.value}")
            if cluster.has_allocation(job.job_id):
                self._fail(now, f"queued job {job.job_id} holds an allocation")
