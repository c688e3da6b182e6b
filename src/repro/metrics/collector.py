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
        #: The last work-rate sum and the manager's ``rate_epoch`` it
        #: was taken at (derived; not pickled).
        self._rate_epoch = -1
        self._work_rate = 0.0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_rate_epoch"], state["_work_rate"]
        return state

    def __setstate__(self, state: dict) -> None:
        # setattr interns the names as pickle's default restore does,
        # so a restored collector pickles to the same bytes.
        for name, value in state.items():
            setattr(self, name, value)
        self._rate_epoch = -1
        self._work_rate = 0.0

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def work_rate(self, manager: "WorkloadManager") -> float:
        """Useful node-seconds per second across the running jobs,
        summed in ascending job-id order (which fixes the float)."""
        jobs = manager.jobs
        rate = 0.0
        for job_id in self.cluster.running_job_ids():
            job = jobs.get(job_id)
            if job is None:
                continue  # reservation phantom occupancy
            rate += job.rate * job.spec.num_nodes
        return rate

    def _sample(self, now: float, manager: "WorkloadManager") -> None:
        cluster = self.cluster
        # The last sum holds while neither the running set nor any
        # running job's rate has changed.
        if self._rate_epoch != manager.rate_epoch:
            self._work_rate = self.work_rate(manager)
            self._rate_epoch = manager.rate_epoch
        rate = self._work_rate
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
