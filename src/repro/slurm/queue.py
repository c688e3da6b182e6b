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
    factor, so a static order would go stale).  Each queued job is
    kept as its :meth:`MultifactorPriority.terms`, built when it is
    added, so a pass scores only what changes with time.  The terms
    are not pickled: a snapshot holds the jobs, and a restore rebuilds
    the terms from them.
    """

    def __init__(self, priority: MultifactorPriority):
        self._terms: dict[int, tuple] = {}
        self.priority = priority

    def __getstate__(self) -> dict:
        return {
            "_jobs": {job_id: terms[-1] for job_id, terms in self._terms.items()},
            "priority": self.priority,
        }

    def __setstate__(self, state: dict) -> None:
        self.priority = state["priority"]
        self._terms = {
            job_id: self.priority.terms(job)
            for job_id, job in state["_jobs"].items()
        }

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __contains__(self, job: Job) -> bool:
        return job.job_id in self._terms

    def __iter__(self) -> Iterator[Job]:
        """Iterate in submit order (not priority order)."""
        return (terms[-1] for terms in self._terms.values())

    def add(self, job: Job) -> None:
        if not job.is_pending:
            raise SchedulingError(
                f"job {job.job_id} is {job.state.value}; only PENDING jobs queue"
            )
        if job.job_id in self._terms:
            raise SchedulingError(f"job {job.job_id} is already queued")
        self._terms[job.job_id] = self.priority.terms(job)

    def remove(self, job: Job) -> None:
        if job.job_id not in self._terms:
            raise SchedulingError(f"job {job.job_id} is not queued")
        del self._terms[job.job_id]

    def ordered(self, now: float) -> list[Job]:
        """Current queue in scheduling (priority) order; stores each
        job's priority on it (a scheduler pass's view)."""
        return self.priority.order_terms(self._terms.values(), now)

    def ranked(self, now: float) -> list[Job]:
        """The order :meth:`ordered` would return, writing nothing to
        the jobs (a read-only view, such as ``squeue``)."""
        return self.priority.rank_terms(self._terms.values(), now)

    def clear(self) -> None:
        self._terms.clear()
