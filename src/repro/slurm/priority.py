"""Multifactor job priority, after SLURM's priority/multifactor plugin.

Priority is a weighted sum of normalised factors:

* **age** — waiting time, saturating at ``age_saturation`` (prevents
  unbounded priority inflation, exactly as SLURM caps the age factor);
* **size** — larger jobs first (the usual HPC convention, so backfill
  has something to fill around) — normalised by cluster size;
* **fairshare** — ``2^(-usage/share)`` decay of a user's recent
  consumption, SLURM's classic fairshare curve;
* **qos** — per-job static boost (unused by the evaluation but part of
  the substrate).

Ties break on submit order (FIFO), which keeps strategy comparisons
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from repro.errors import ConfigError
from repro.slurm.job import Job


@dataclass(frozen=True)
class PriorityWeights:
    """Relative weights of the priority factors."""

    age: float = 1000.0
    size: float = 200.0
    fairshare: float = 500.0
    qos: float = 0.0
    #: Wait time (seconds) at which the age factor saturates at 1.0.
    age_saturation: float = 7 * 86_400.0

    def __post_init__(self) -> None:
        for name in ("age", "size", "fairshare", "qos"):
            if getattr(self, name) < 0:
                raise ConfigError(f"priority weight {name} must be >= 0")
        if self.age_saturation <= 0:
            raise ConfigError("age_saturation must be positive")


#: The job of a :meth:`MultifactorPriority.sorted_keys` key.
job_of_key = itemgetter(3)

#: Default QoS classes and their normalised factors.  Unknown classes
#: fall back to "normal".
DEFAULT_QOS_LEVELS: dict[str, float] = {"low": 0.0, "normal": 0.5, "high": 1.0}


class MultifactorPriority:
    """Computes job priorities and tracks fairshare usage.

    A job's priority is scored from its *terms*
    (:meth:`terms`): what cannot change while it waits, built once
    when it is queued.  Each user's weighted fairshare term is kept
    too, set the first time the user is seen and recomputed by
    :meth:`charge`.  A pass then evaluates only the age term and the
    requeue backoff.  The kept fairshare terms are not pickled.
    """

    def __init__(
        self,
        weights: PriorityWeights | None = None,
        num_nodes: int = 1,
        qos_levels: dict[str, float] | None = None,
    ):
        self.weights = weights or PriorityWeights()
        self.num_nodes = max(1, int(num_nodes))
        #: Accumulated node-seconds charged per user.
        self.usage: dict[str, float] = {}
        #: Normalisation constant for the fairshare decay curve.
        self.share_norm: float = 50_000.0
        #: Priority subtracted per requeue a job has suffered, so
        #: repeatedly failing jobs back off instead of immediately
        #: reclaiming the nodes that just failed under them (0 = off).
        self.requeue_backoff: float = 0.0
        self.qos_levels = dict(
            DEFAULT_QOS_LEVELS if qos_levels is None else qos_levels
        )
        #: Weighted fairshare term per user seen (derived from
        #: ``usage``; not pickled).
        self._user_terms: dict[str, float] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_user_terms"]
        return state

    def __setstate__(self, state: dict) -> None:
        # setattr interns the names as pickle's default restore does,
        # so a restored priority pickles to the same bytes.
        for name, value in state.items():
            setattr(self, name, value)
        self._user_terms = {user: self._user_term(user) for user in self.usage}

    def qos_factor(self, qos: str) -> float:
        """Normalised QoS factor in [0, 1] (unknown classes = normal)."""
        return self.qos_levels.get(
            qos, self.qos_levels.get("normal", 0.5)
        )

    # ------------------------------------------------------------------
    # Fairshare bookkeeping
    # ------------------------------------------------------------------
    def charge(self, user: str, node_seconds: float) -> None:
        """Record consumed node-seconds against *user*."""
        if node_seconds < 0:
            raise ConfigError(f"cannot charge negative usage {node_seconds}")
        self.usage[user] = self.usage.get(user, 0.0) + node_seconds
        self._user_terms[user] = self._user_term(user)

    def fairshare_factor(self, user: str) -> float:
        """SLURM's classic curve: 2^(-usage/norm), in (0, 1]."""
        usage = self.usage.get(user, 0.0)
        return 2.0 ** (-usage / self.share_norm)

    def _user_term(self, user: str) -> float:
        return self.weights.fairshare * self.fairshare_factor(user)

    # ------------------------------------------------------------------
    # Priority
    # ------------------------------------------------------------------
    def terms(self, job: Job) -> tuple[float, float, str, float, int, Job]:
        """``(submit_time, size_term, user, qos_term, job_id, job)``:
        the parts of *job*'s priority that cannot change while it
        waits, the size and QoS terms already weighted."""
        spec = job.spec
        user = spec.user
        if user not in self._user_terms:
            self._user_terms[user] = self._user_term(user)
        w = self.weights
        size = spec.num_nodes / self.num_nodes
        return (
            spec.submit_time,
            w.size * (size if size < 1.0 else 1.0),
            user,
            w.qos * self.qos_factor(spec.qos),
            spec.job_id,
            job,
        )

    def priority(self, job: Job, now: float) -> float:
        """Priority of *job* at time *now* (higher runs first)."""
        return -self._keys([self.terms(job)], now)[0][0]

    def refresh(self, jobs: list[Job], now: float) -> None:
        """Recompute and store priorities on the given jobs."""
        for key in self._keys(map(self.terms, jobs), now):
            key[3].priority = -key[0]

    def order(self, jobs: list[Job], now: float) -> list[Job]:
        """Jobs sorted by descending priority, FIFO on ties; stores
        each job's priority on it."""
        return self.order_terms(map(self.terms, jobs), now)

    def order_terms(self, terms: Iterable[tuple], now: float) -> list[Job]:
        """:meth:`order` of the jobs whose :meth:`terms` are given."""
        keys = self.sorted_keys(terms, now)
        ordered: list[Job] = []
        for key in keys:
            job = key[3]
            job.priority = -key[0]
            ordered.append(job)
        return ordered

    def rank_terms(self, terms: Iterable[tuple], now: float) -> list[Job]:
        """The order :meth:`order_terms` returns, writing nothing to the
        jobs, so read-only views can rank a live queue."""
        return list(map(job_of_key, self.sorted_keys(terms, now)))

    def sorted_keys(
        self, terms: Iterable[tuple], now: float
    ) -> list[tuple[float, float, int, Job]]:
        """``(-priority, submit_time, job_id, job)`` at time *now* of
        the jobs whose :meth:`terms` are given, in scheduling order,
        writing nothing to the jobs."""
        keys = self._keys(terms, now)
        keys.sort()
        return keys

    def _keys(
        self, terms: Iterable[tuple], now: float
    ) -> list[tuple[float, float, int, Job]]:
        """Unsorted ``(-priority, submit_time, job_id, job)`` at time
        *now* of the jobs whose :meth:`terms` are given.

        The textbook sum in its operand order, ``((age + size) +
        fairshare) + qos``, each term weighted; only the age term is
        evaluated here.  The conditional expressions are ``max(0.0,
        x)`` and ``min(1.0, x)`` spelled out (same result for -0.0 and
        NaN).
        """
        w = self.weights
        age_w, age_saturation = w.age, w.age_saturation
        user_terms = self._user_terms
        backoff = self.requeue_backoff
        backing_off = backoff > 0.0
        keys: list[tuple[float, float, int, Job]] = []
        append = keys.append
        for submit, size_term, user, qos_term, job_id, job in terms:
            wait = now - submit
            age = (wait if wait > 0.0 else 0.0) / age_saturation
            value = (
                age_w * (age if age < 1.0 else 1.0)
                + size_term
                + user_terms[user]
                + qos_term
            )
            if backing_off and job.requeues > 0:
                value -= backoff * job.requeues
            append((-value, submit, job_id, job))
        return keys
