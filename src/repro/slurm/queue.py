"""The pending-job queue."""

from __future__ import annotations

from typing import Iterator

from repro.errors import SchedulingError
from repro.slurm.job import Job
from repro.slurm.priority import MultifactorPriority


class PendingQueue:
    """Jobs awaiting allocation, served in multifactor-priority order.

    Insertion order is preserved internally; priority ordering is
    computed on demand (priorities are time-dependent through the age
    factor, so a static order would go stale).
    """

    def __init__(self, priority: MultifactorPriority):
        self._jobs: dict[int, Job] = {}
        self.priority = priority

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._jobs

    def __iter__(self) -> Iterator[Job]:
        """Iterate in submit order (not priority order)."""
        return iter(self._jobs.values())

    def add(self, job: Job) -> None:
        if not job.is_pending:
            raise SchedulingError(
                f"job {job.job_id} is {job.state.value}; only PENDING jobs queue"
            )
        if job.job_id in self._jobs:
            raise SchedulingError(f"job {job.job_id} is already queued")
        self._jobs[job.job_id] = job

    def remove(self, job: Job) -> None:
        if job.job_id not in self._jobs:
            raise SchedulingError(f"job {job.job_id} is not queued")
        del self._jobs[job.job_id]

    def ordered(self, now: float) -> list[Job]:
        """Current queue in scheduling (priority) order; stores each
        job's priority on it (a scheduler pass's view)."""
        return self.priority.order(list(self._jobs.values()), now)

    def ranked(self, now: float) -> list[Job]:
        """The order :meth:`ordered` would return, writing nothing to
        the jobs (a read-only view, such as ``squeue``)."""
        return self.priority.rank(list(self._jobs.values()), now)

    def clear(self) -> None:
        self._jobs.clear()
