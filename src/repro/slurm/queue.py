"""The pending-job queue."""

from __future__ import annotations

from typing import Iterator

from repro.errors import SchedulingError
from repro.slurm.job import Job
from repro.slurm.priority import MultifactorPriority, job_of_key


class PendingQueue:
    """Jobs awaiting allocation, served in multifactor-priority order.

    Insertion order is preserved internally; priority ordering is
    computed on demand (priorities are time-dependent through the age
    factor, so a static order would go stale).  Each queued job is
    kept as its :meth:`MultifactorPriority.terms`, built when it is
    added, so a pass scores only what changes with time.  The terms
    are not pickled: a snapshot holds the jobs, and a restore rebuilds
    the terms from them.

    A pass (:meth:`ordered`) keeps its sorted keys instead of writing
    every queued job's ``priority``.  A job that leaves the queue gets
    its priority from those keys at once; the others get theirs from
    :meth:`flush`, which must run before anything reads ``priority``
    (the manager flushes before it is pickled, and
    :meth:`ranked` flushes for read-only views).  Until the next pass,
    each job then holds exactly what an eager write-back at the pass
    would have left on it.
    """

    def __init__(self, priority: MultifactorPriority):
        self._terms: dict[int, tuple] = {}
        self.priority = priority
        #: The last pass's sorted keys, while their priorities are not
        #: yet written to the jobs still queued (None once flushed),
        #: and the pass's order: the jobs of those keys.  Not pickled.
        self._unwritten: list[tuple] | None = None
        self._unwritten_jobs: list[Job] = []

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
        self._unwritten = None
        self._unwritten_jobs = []

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
        """Dequeue *job*, writing its priority from the last pass's
        keys if that pass ranked it and its keys are not yet flushed."""
        if job.job_id not in self._terms:
            raise SchedulingError(f"job {job.job_id} is not queued")
        del self._terms[job.job_id]
        if self._unwritten is not None:
            try:
                index = self._unwritten_jobs.index(job)
            except ValueError:
                return  # queued after the last pass
            job.priority = -self._unwritten[index][0]

    def ordered(self, now: float) -> list[Job]:
        """Current queue in scheduling (priority) order (a scheduler
        pass's view).  The priorities are kept, not written: see
        :meth:`flush`."""
        keys = self.priority.sorted_keys(self._terms.values(), now)
        self._unwritten = keys
        self._unwritten_jobs = list(map(job_of_key, keys))
        return self._unwritten_jobs.copy()

    def flush(self) -> None:
        """Write the last pass's priorities to its jobs: the floats an
        eager write-back at that pass would have written."""
        keys = self._unwritten
        if keys is None:
            return
        self._unwritten = None
        self._unwritten_jobs = []
        for key in keys:
            key[3].priority = -key[0]

    def ranked(self, now: float) -> list[Job]:
        """The order :meth:`ordered` would return, writing to the jobs
        only what :meth:`flush` writes (a read-only view, such as
        ``squeue``)."""
        self.flush()
        return self.priority.rank_terms(self._terms.values(), now)

    def clear(self) -> None:
        self.flush()
        self._terms.clear()
