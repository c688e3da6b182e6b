"""Event-driven metric collection.

The collector records a step-function sample of system state at every
change (job start/end, submission): busy nodes, doubly-occupied
(shared) nodes, pending-queue length, and the instantaneous useful
work rate.  Sampling only at changes keeps the record exact — the
quantities are piecewise constant between events — and the numpy
post-processing in :mod:`repro.metrics.timeline` does the integrals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.machine import Cluster
from repro.metrics.timeline import Timeline
from repro.slurm.accounting import JobRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.slurm.job import Job
    from repro.slurm.manager import WorkloadManager


class MetricsCollector:
    """Records system-state samples during a simulation."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.times: list[float] = []
        self.busy_nodes: list[int] = []
        self.shared_nodes: list[int] = []
        self.queue_lengths: list[int] = []
        self.work_rates: list[float] = []
        self.records: list[JobRecord] = []
        self._timeline: Timeline | None = None

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _sample(self, now: float, manager: "WorkloadManager") -> None:
        cluster = self.cluster
        jobs = manager.jobs
        # Ascending job-id order fixes the floating-point sum.
        rate = 0.0
        for job_id in cluster.running_job_ids():
            job = jobs.get(job_id)
            if job is None:
                continue  # reservation phantom occupancy
            rate += job.rate * job.spec.num_nodes
        self.times.append(now)
        self.busy_nodes.append(cluster.num_busy())
        self.shared_nodes.append(cluster.num_shared())
        self.queue_lengths.append(len(manager.queue))
        self.work_rates.append(rate)
        self._timeline = None  # invalidate cache

    # ------------------------------------------------------------------
    # Manager hooks
    # ------------------------------------------------------------------
    def on_submit(self, now: float, job: "Job", manager: "WorkloadManager") -> None:
        self._sample(now, manager)

    def on_start(self, now: float, job: "Job", manager: "WorkloadManager") -> None:
        self._sample(now, manager)

    def on_job_end(
        self, now: float, record: JobRecord, manager: "WorkloadManager"
    ) -> None:
        self.records.append(record)
        self._sample(now, manager)

    def on_sample(self, now: float, manager: "WorkloadManager") -> None:
        self._sample(now, manager)

    def on_sim_end(self, now: float, manager: "WorkloadManager") -> None:
        self._sample(now, manager)

    def drop_last_sample(self) -> None:
        """Forget the most recent sample (a paused run's end sample,
        when the run continues)."""
        for series in (self.times, self.busy_nodes, self.shared_nodes,
                       self.queue_lengths, self.work_rates):
            del series[-1]
        self._timeline = None

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def timeline(self) -> Timeline:
        """The recorded step functions as a (cached) Timeline."""
        if self._timeline is None:
            self._timeline = Timeline.from_samples(
                times=self.times,
                series={
                    "busy_nodes": self.busy_nodes,
                    "shared_nodes": self.shared_nodes,
                    "queue_length": self.queue_lengths,
                    "work_rate": self.work_rates,
                },
            )
        return self._timeline
