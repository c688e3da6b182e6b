"""Scan-based reference engine: the oracle for the incremental indexes.

The engine answers its occupancy and co-runner queries from indexes
the :class:`~repro.cluster.machine.Cluster` maintains incrementally,
reserves against per-node release bounds the manager maintains,
rejects impossible joins by a subset-sum mask, and memoises
interference predictions per profile pair and compatible groups per
profile.  This module keeps the straightforward versions they
replaced — every query answered by walking the nodes or the running
jobs, the running jobs and resident groups rebuilt on every pass,
every job scored from scratch, sorted by a key function and its
priority written at once, every placement probe run in full, every
prediction recomputed — so
differential tests can run both engines on the same workload and
demand identical placements and metrics.

Nothing here is used outside the test suite.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator

from repro.cluster.machine import Cluster
from repro.cluster.node import SMT_LANES
from repro.core.pairing import PairingPolicy
from repro.core.selector import AvailabilityView, ResidentGroup
from repro.core.strategy import Strategy
from repro.interference.contention import cache_factor, membw_factor
from repro.interference.model import InterferenceModel
from repro.interference.smt import smt_core_factor
from repro.metrics.collector import MetricsCollector
from repro.slurm.manager import WorkloadManager
from repro.slurm.priority import MultifactorPriority
from repro.slurm.queue import PendingQueue


class ReferenceCluster(Cluster):
    """A cluster that answers co-runner queries by walking the job's
    nodes instead of reading its co-runner index."""

    def jobs_sharing_with(self, job_id: int) -> set[int]:
        found: set[int] = set()
        for node in self.nodes_of(job_id):
            other = node.co_runner_of(job_id)
            if other is not None:
                found.add(other)
        return found


class ReferenceAvailabilityView(AvailabilityView):
    """Availability built by scanning every node and running job, with
    no join filter and no compatible-group memo."""

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        self._sums = None
        self._joinable = {}
        cluster = ctx.cluster
        self.idle = [n.node_id for n in cluster.nodes if n.is_idle]
        if ctx.avoid_nodes:
            self.idle = [n for n in self.idle if n not in ctx.avoid_nodes] + [
                n for n in self.idle if n in ctx.avoid_nodes
            ]
        self.groups = {}
        for job in ctx.running.values():
            allocation = job.allocation
            if allocation is None or not allocation.is_shared:
                continue
            if all(
                cluster.node(node_id).has_free_lane
                for node_id in allocation.node_ids
            ):
                self.groups[job.job_id] = ResidentGroup(
                    job=job,
                    profile=ctx.profile_of(job),
                    node_ids=allocation.node_ids,
                    min_memory_mb=min(
                        cluster.node(node_id).memory_mb
                        for node_id in allocation.node_ids
                    ),
                )

    def may_cover(self, need) -> bool:
        return True

    def rules_out(self, job) -> bool:
        return False

    def joinable_groups(self, profile):
        pairing = self._ctx.pairing
        candidates = [
            group
            for group in self.groups.values()
            if pairing.compatible(profile, group.profile)
        ]
        candidates.sort(
            key=lambda g: (-pairing.score(profile, g.profile), g.job.job_id)
        )
        return candidates


class ReferencePriority(MultifactorPriority):
    """Scores each job on its own with the textbook formula (no kept
    fairshare or static terms) and sorts with a per-job key function.

    It overrides :meth:`order_terms`, the method
    :meth:`PendingQueue.ordered` calls on every scheduler pass, and
    reads nothing from the terms but the job.  ``orders`` records the
    job ids of every order it returned, so a test can check that the
    reference scoring ran on every pass."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.orders: list[list[int]] = []

    def score(self, job, now) -> float:
        w = self.weights
        spec = job.spec
        wait = max(0.0, now - spec.submit_time)
        value = (
            w.age * min(1.0, wait / w.age_saturation)
            + w.size * min(1.0, spec.num_nodes / self.num_nodes)
            + w.fairshare * self.fairshare_factor(spec.user)
            + w.qos * self.qos_factor(spec.qos)
        )
        if self.requeue_backoff > 0.0 and job.requeues > 0:
            value -= self.requeue_backoff * job.requeues
        return value

    def order_terms(self, terms, now):
        jobs = [entry[-1] for entry in terms]
        for job in jobs:
            job.priority = self.score(job, now)
        ordered = sorted(
            jobs, key=lambda j: (-j.priority, j.spec.submit_time, j.job_id)
        )
        self.orders.append([job.job_id for job in ordered])
        return ordered


class ReferenceQueue(PendingQueue):
    """The pending queue with the eager write-back: every pass writes
    every queued job's priority through :meth:`order_terms`."""

    def ordered(self, now):
        return self.priority.order_terms(self._terms.values(), now)


class ReferenceCollector(MetricsCollector):
    """Samples by walking every node and sorting every allocation."""

    def _sample(self, now, manager) -> None:
        busy = 0
        shared = 0
        for node in self.cluster.nodes:
            occupants = len(node.occupant_ids)
            if occupants:
                busy += 1
            if occupants >= SMT_LANES:
                shared += 1
        rate = 0.0
        allocated = sorted(
            job_id for job_id in manager.jobs
            if self.cluster.has_allocation(job_id)
        )
        for job_id in allocated:
            job = manager.jobs[job_id]
            rate += job.rate * job.num_nodes
        self.times.append(now)
        self.busy_nodes.append(busy)
        self.shared_nodes.append(shared)
        self.queue_lengths.append(len(manager.queue))
        self.work_rates.append(rate)
        self._timeline = None


class ReferenceModel(InterferenceModel):
    """The co-run model with every prediction recomputed."""

    def speed(self, profile, co_profile) -> float:
        if co_profile is None:
            return 1.0
        p = self.params
        core = smt_core_factor(
            profile.core_demand,
            co_profile.core_demand,
            smt_headroom=p.smt_headroom,
            corun_ceiling=p.corun_ceiling,
        )
        bw = membw_factor(
            profile.membw_demand,
            co_profile.membw_demand,
            capacity=p.membw_capacity,
        )
        cache = cache_factor(
            profile.cache_footprint,
            co_profile.cache_footprint,
            penalty=p.cache_penalty,
        )
        return max(p.min_speed, core * bw * cache)


class ReferencePairing(PairingPolicy):
    """The pairing policy with every verdict recomputed."""

    def compatible(self, a, b) -> bool:
        if self.oblivious:
            return True
        speed_a = self.model.speed(a, b)
        speed_b = self.model.speed(b, a)
        if speed_a + speed_b < self.threshold:
            return False
        min_speed = 1.0 / self.max_dilation
        return speed_a >= min_speed and speed_b >= min_speed

    def score(self, a, b) -> float:
        if self.oblivious:
            return 1.0
        return self.model.pair_throughput(a, b)


class ReferenceManager(WorkloadManager):
    """A manager on the reference model, pairing policy, priority and
    queue, computing rates node by node, rebuilding its running-job map
    on every pass and reserving against release times scanned from the
    running jobs.  It runs on a :class:`ReferenceCluster`, so
    the co-runners that set ``sharing_now``, ``corun_job_ids`` and the
    jobs refreshed on a start or an end are found by a node walk too.
    Pair it with :class:`ReferenceCollector` and run it inside
    :func:`reference_views`."""

    def __init__(self, cluster, config=None, strategy=None, collector=None,
                 **kwargs) -> None:
        assert isinstance(cluster, ReferenceCluster), type(cluster)
        super().__init__(cluster, config=config, strategy=strategy,
                         collector=collector, **kwargs)
        if type(self.model) is InterferenceModel:
            self.model = ReferenceModel(self.model.params)
        # else: the time-sliced model, whose speed is a constant.
        self.pairing = ReferencePairing(
            model=self.model,
            threshold=self.pairing.threshold,
            max_dilation=self.pairing.max_dilation,
            oblivious=self.pairing.oblivious,
        )
        priority = self.priority
        self.priority = ReferencePriority(
            priority.weights, priority.num_nodes, priority.qos_levels
        )
        self.queue = ReferenceQueue(self.priority)

    def _pass_release_bounds(self):
        return None

    def _pass_running(self):
        return self._scan_running()

    def _job_rate(self, job, co_runners) -> float:
        profile = self.profile_of(job)
        rate = 1.0
        for node_id in job.allocation.node_ids:
            co_id = self.cluster.node(node_id).co_runner_of(job.job_id)
            if co_id is None:
                continue
            co_profile = self.profile_of(self.jobs[co_id])
            rate = min(rate, self.model.speed(profile, co_profile))
        return rate * job.locality_factor * job.checkpoint_slowdown


def _strategy_modules() -> list:
    found, todo = [], [Strategy]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        module = sys.modules[cls.__module__]
        if getattr(module, "AvailabilityView", None) is not None:
            found.append(module)
    return found


@contextlib.contextmanager
def reference_views() -> Iterator[None]:
    """Every strategy builds :class:`ReferenceAvailabilityView` inside
    the block."""
    import repro.core  # noqa: F401 - registers every strategy module

    modules = _strategy_modules()
    for module in modules:
        module.AvailabilityView = ReferenceAvailabilityView
    try:
        yield
    finally:
        for module in modules:
            module.AvailabilityView = AvailabilityView
