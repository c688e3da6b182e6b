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


#: Default QoS classes and their normalised factors.  Unknown classes
#: fall back to "normal".
DEFAULT_QOS_LEVELS: dict[str, float] = {"low": 0.0, "normal": 0.5, "high": 1.0}


class MultifactorPriority:
    """Computes job priorities and tracks fairshare usage."""

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

    def fairshare_factor(self, user: str) -> float:
        """SLURM's classic curve: 2^(-usage/norm), in (0, 1]."""
        usage = self.usage.get(user, 0.0)
        return 2.0 ** (-usage / self.share_norm)

    # ------------------------------------------------------------------
    # Priority
    # ------------------------------------------------------------------
    def priority(self, job: Job, now: float) -> float:
        """Priority of *job* at time *now* (higher runs first)."""
        return -self._keys([job], now)[0][0]

    def refresh(self, jobs: list[Job], now: float) -> None:
        """Recompute and store priorities on the given jobs."""
        for key in self._keys(jobs, now):
            key[3].priority = -key[0]

    def rank(self, jobs: list[Job], now: float) -> list[Job]:
        """Jobs sorted by descending priority, FIFO on ties.  Writes
        nothing to the jobs, so read-only views can rank a live queue."""
        keys = self._keys(jobs, now)
        keys.sort()
        return [key[3] for key in keys]

    def order(self, jobs: list[Job], now: float) -> list[Job]:
        """Jobs sorted by descending priority, FIFO on ties; stores
        each job's priority on it."""
        keys = self._keys(jobs, now)
        keys.sort()
        ordered: list[Job] = []
        for key in keys:
            job = key[3]
            job.priority = -key[0]
            ordered.append(job)
        return ordered

    def _keys(
        self, jobs: list[Job], now: float
    ) -> list[tuple[float, float, int, Job]]:
        """Unsorted ``(-priority, submit_time, job_id, job)`` of *jobs*
        at time *now*.

        One loop evaluates the textbook sum in its operand order; the
        conditional expressions are ``max(0.0, x)`` and ``min(1.0, x)``
        spelled out (same result for -0.0 and NaN).  Each user's
        weighted fairshare term and each QoS class's weighted term are
        computed once per call rather than once per job.
        """
        w = self.weights
        age_w, size_w, age_saturation = w.age, w.size, w.age_saturation
        fairshare_w, qos_w = w.fairshare, w.qos
        num_nodes = self.num_nodes
        backoff = self.requeue_backoff
        usages, norm = self.usage, self.share_norm
        fairshare: dict[str, float] = {}
        qos: dict[str, float] = {}
        keys: list[tuple[float, float, int, Job]] = []
        append = keys.append
        for job in jobs:
            spec = job.spec
            user = spec.user
            user_term = fairshare.get(user)
            if user_term is None:
                user_term = fairshare[user] = (
                    fairshare_w * 2.0 ** (-usages.get(user, 0.0) / norm)
                )
            qos_term = qos.get(spec.qos)
            if qos_term is None:
                qos_term = qos[spec.qos] = qos_w * self.qos_factor(spec.qos)
            submit = spec.submit_time
            wait = now - submit
            age = (wait if wait > 0.0 else 0.0) / age_saturation
            size = spec.num_nodes / num_nodes
            value = (
                age_w * (age if age < 1.0 else 1.0)
                + size_w * (size if size < 1.0 else 1.0)
                + user_term
                + qos_term
            )
            if backoff > 0.0 and job.requeues > 0:
                value -= backoff * job.requeues
            append((-value, submit, spec.job_id, job))
        return keys
