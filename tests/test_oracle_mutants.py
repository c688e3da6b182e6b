"""Planted bugs that named oracles must catch.

Each mutant is one ``monkeypatch`` of a function in ``src/repro``.  For
each, the test names the oracles that must fail and runs each on a
fixed, small example set: the mutant is killed when every oracle raises
``AssertionError``.  The same oracles must pass on the same examples
without the mutant, so a kill is the mutant's doing.  A mutant that
survives means an oracle has lost the power it was written for.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.campaign import warm
from repro.cluster.machine import Cluster
from repro.core.selector import AvailabilityView
from repro.engine.simulator import Simulator
from repro.errors import SimulationError
from repro.faultinject import registry
from repro.slurm.manager import WorkloadManager
from repro.slurm.priority import MultifactorPriority
from repro.storage import durable
from tests import (
    test_cluster_indexes,
    test_faultinject,
    test_manager_rate_arithmetic,
    test_snapshot,
    test_warm_fork,
)
from tests.test_engine_differential import (
    Scenario,
    assert_engines_agree,
    memory_scenario,
)
from tests.test_slurm_priority_queue import QOS, USERS, assert_order_matches_reference


def _stale_charge(self, user, node_seconds):
    # Records the usage but leaves the kept fairshare term as it was.
    self.usage[user] = self.usage.get(user, 0.0) + node_seconds


def _presummed_terms(terms):
    # Folds the QoS term into the size term: the sum is then
    # (age + (size + qos)) + fairshare, not ((age + size) + fairshare) + qos.
    def mutant(self, job):
        submit, size_term, user, qos_term, job_id, job = terms(self, job)
        return (submit, size_term + qos_term, user, 0.0, job_id, job)

    return mutant


def _uninterned_setstate(self, state):
    # Restores the attributes under the unpickled (not interned) names.
    self.__dict__.update(state)
    self._user_terms = {user: self._user_term(user) for user in self.usage}


def _join_order_release(release):
    # After the release, each co-runner left behind keys its map in the
    # order its co-runners were granted, not the order its nodes meet
    # them.
    def mutant(self, job_id):
        left = release(self, job_id)
        granted = list(self._allocations)
        for other_id in left:
            theirs = self._co_runners[other_id]
            self._co_runners[other_id] = {
                joiner: theirs[joiner] for joiner in granted if joiner in theirs
            }
        return left

    return mutant


def _unsorted_merge(self, node_ids):
    # Appends the freed nodes to the idle index without sorting it.
    self._idle_ids.extend(node_ids)


def _cluster_minimum(self, node_ids):
    # Reads the cluster-wide minimum even when node memories differ.
    return self.min_memory_mb


def _pickled_flight_ring(getstate):
    # Pickles the flight ring with the events it holds.
    def mutant(self):
        state = getstate(self)
        state["flight_ring"] = self.flight_ring
        return state

    return mutant


def _ring_pause_sample(self):
    # Tells the pause sample by the flight ring's last event.
    collector, ring = self.collector, self.sim.flight_ring
    if (collector is not None and collector.times and ring
            and collector.times[-1] > ring[-1].time):
        collector.drop_last_sample()


def _unflushed_getstate(self):
    # Pickles the manager without writing the queue's pending
    # priorities first; only the simulator's hook writes them, after
    # the queue and the job table are already pickled.
    state = self.__dict__.copy()
    for name in ("_release_bounds", "_running", "_groups", "rate_epoch"):
        del state[name]
    return state


def _stale_running_release(release):
    # Frees the job but leaves it in the kept running-job map.
    def mutant(self, job):
        release(self, job)
        self._running[job.job_id] = job

    return mutant


def _unbumped_refresh(refresh):
    # Refreshes a rate without invalidating the kept work rate.
    def mutant(self, job):
        epoch = self.rate_epoch
        refresh(self, job)
        self.rate_epoch = epoch

    return mutant


def _forgetful_release(release):
    # Leaves out of the kept groups a co-runner the release makes
    # joinable again.
    def mutant(self, job):
        before = set(self._groups)
        release(self, job)
        for job_id in set(self._groups) - before:
            del self._groups[job_id]

    return mutant


def _groupless_screen(self, job):
    # Rules out every job wider than the idle nodes, though a join
    # takes no idle node.
    return job.spec.num_nodes > len(self.idle)


def _keep_count_lock() -> None:
    # Leaves the lock as the fork found it, held or not.
    pass


def _stamp_checking_failpoint(name: str) -> None:
    # Looks for the site's fired stamp before the disarmed check.  It
    # runs as the body of ``failpoint``, so its names resolve in
    # ``repro.faultinject.registry``.
    if Path(os.environ.get(ENV_STAMP, os.curdir), f"{name}.fired").exists():  # noqa: F821
        return
    if _PLAN is None:  # noqa: F821
        return
    spec = _PLAN.check(name)  # noqa: F821
    if spec is not None:
        _trip(spec)  # noqa: F821


def _replace_body(function, replacement) -> Callable[[pytest.MonkeyPatch], None]:
    """Plants *replacement* as the body of *function* itself, so that
    every holder of *function* (an imported name, a registered hook)
    runs the mutant."""
    return lambda mp: mp.setattr(function, "__code__", replacement.__code__)


def differential_oracle() -> None:
    """The indexed engine against the reference engine, which scores
    every pending job from scratch on every pass."""
    for strategy in ("easy_backfill", "shared_backfill"):
        assert_engines_agree(Scenario(
            seed=3, strategy=strategy, num_jobs=50, nodes=16,
            share_fraction=0.9, failures=True, requeue_backoff=400.0,
        ))


def validated_exclusive_oracle() -> None:
    """An exclusive run under the validating collector, which compares
    every cluster index with a scan at every sample, against the
    reference engine."""
    try:
        assert_engines_agree(Scenario(seed=3, strategy="easy_backfill"))
    except SimulationError as exc:
        raise AssertionError(str(exc)) from exc


def predicted_differential_oracle() -> None:
    """The indexed engine, under the validating collector, against the
    reference engine, which rebuilds the running jobs and the resident
    groups on every pass; with walltime prediction both passes read
    the running jobs."""
    try:
        assert_engines_agree(Scenario(
            seed=5, strategy="shared_backfill", num_jobs=40, nodes=12,
            share_fraction=0.9, predicted=True,
        ))
    except SimulationError as exc:
        raise AssertionError(str(exc)) from exc


def group_memory_oracle() -> None:
    """Resident groups on nodes of mixed memory against the reference
    view, which walks each group's nodes for its smallest memory."""
    test_cluster_indexes.TestGroupMemory(
    ).test_groups_match_the_reference_view_on_mixed_memory()


def memory_differential_oracle() -> None:
    """Joins weighed against node memory, on racks of three memory
    sizes, against the reference engine."""
    assert_engines_agree(memory_scenario("shared_backfill"))


def _in_tmp_dir(test: Callable[[Path], None]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        test(Path(tmp))


def idle_worker_fds_oracle() -> None:
    """A forked worker holds only fds 0, 1 and 2 while its parent holds
    a listening socket and a sibling worker's pipes."""
    _in_tmp_dir(test_warm_fork.test_idle_worker_holds_only_fds_0_1_2)


def held_count_lock_oracle() -> None:
    """A worker forked while another thread holds the durable-write
    counter's lock still drains a store."""
    _in_tmp_dir(
        test_warm_fork.test_spawn_while_another_thread_holds_the_count_lock_drains
    )


def disarmed_cost_oracle() -> None:
    """A disarmed failpoint hook costs under 1500 ns a call."""
    saved = registry._PLAN
    registry.disarm()
    try:
        test_faultinject.TestFiring().test_disarmed_hook_costs_under_1500_ns()
    finally:
        registry._PLAN = saved


def node_order_oracle() -> None:
    """A resident's remaining co-runners stay in node order after a
    release."""
    test_cluster_indexes.TestCoRunnerIndex(
    ).test_release_keeps_the_remaining_co_runners_in_node_order()


def order_oracle() -> None:
    """The pending queue's order and priority bits against
    :class:`ReferencePriority`, with a nonzero QoS weight."""
    rng = random.Random(31)
    for saturation in (500.0, 7 * 86_400.0):
        params = [
            (rng.randint(1, 20), rng.choice(USERS), rng.choice(QOS),
             rng.uniform(0.0, 3000.0), rng.randint(0, 3))
            for _ in range(30)
        ]
        passes = [
            (rng.uniform(0.0, 6000.0),
             [(rng.choice(USERS), rng.uniform(0.0, 1e6))])
            for _ in range(4)
        ]
        assert_order_matches_reference(params, passes, 25.0, saturation)


def snapshot_restore_oracle() -> None:
    """A restored mid-run manager pickles to the bytes it came from,
    and run on, to those of a manager never restored."""
    test_snapshot.TestSnapshotBytesPinned(
    ).test_restored_manager_pickles_to_the_same_bytes()


def eager_bytes_oracle() -> None:
    """A snapshot taken between two passes, of the manager or of its
    simulator, pickles to the bytes of one whose queue writes every
    pass's priorities at once."""
    test_snapshot.TestSnapshotBytesPinned(
    ).test_snapshot_between_passes_matches_an_eager_write_back()


def kept_work_rate_oracle() -> None:
    """A refresh that changes a running job's rate makes the next
    sample sum the work rate afresh."""
    test_manager_rate_arithmetic.TestKeptWorkRate(
    ).test_rate_refresh_invalidates_the_kept_work_rate()


def restored_pause_parity_oracle() -> None:
    """A run paused, restored (its flight ring empty) and continued
    summarises like one never paused."""
    test_snapshot.TestSnapshotBytesPinned(
    ).test_paused_run_summarises_like_one_never_paused(None, True)


def ringless_pause_parity_oracle() -> None:
    """A run paused and continued with no flight ring summarises like
    one never paused."""
    test_snapshot.TestSnapshotBytesPinned(
    ).test_paused_run_summarises_like_one_never_paused(
        {"flight_recorder": False}, False
    )


@dataclass(frozen=True)
class Mutant:
    name: str
    #: What the planted bug does.
    summary: str
    #: Applies the mutant through the given ``monkeypatch``.
    plant: Callable[[pytest.MonkeyPatch], None]
    #: The oracles that must each fail with the mutant planted.
    oracles: tuple[Callable[[], None], ...]


MUTANTS = (
    Mutant(
        "stale-fairshare",
        "charge leaves the kept fairshare term stale",
        lambda mp: mp.setattr(MultifactorPriority, "charge", _stale_charge),
        (differential_oracle,),
    ),
    Mutant(
        "presummed-static-term",
        "the kept static term pre-adds size and QoS",
        lambda mp: mp.setattr(
            MultifactorPriority, "terms",
            _presummed_terms(MultifactorPriority.terms),
        ),
        (order_oracle,),
    ),
    Mutant(
        "uninterned-restore",
        "a restored priority keeps its attribute names uninterned",
        lambda mp: mp.setattr(
            MultifactorPriority, "__setstate__", _uninterned_setstate
        ),
        (snapshot_restore_oracle,),
    ),
    Mutant(
        "join-order-release",
        "a release re-keys a resident's co-runner map in join order",
        lambda mp: mp.setattr(
            Cluster, "release", _join_order_release(Cluster.release)
        ),
        (node_order_oracle,),
    ),
    Mutant(
        "unsorted-idle-merge",
        "a release leaves the idle index unsorted",
        lambda mp: mp.setattr(Cluster, "_merge_idle", _unsorted_merge),
        (validated_exclusive_oracle,),
    ),
    Mutant(
        "uniform-group-memory",
        "a group's memory is the cluster minimum on mixed-memory nodes",
        lambda mp: mp.setattr(Cluster, "min_memory_of", _cluster_minimum),
        (group_memory_oracle, memory_differential_oracle),
    ),
    Mutant(
        "fork-keeps-fds",
        "a forked worker keeps every fd it inherits",
        lambda mp: mp.setattr(warm, "_close_inherited_fds", lambda: None),
        (idle_worker_fds_oracle,),
    ),
    Mutant(
        "fork-keeps-count-lock",
        "a forked worker keeps the counter lock another thread held",
        _replace_body(durable._new_count_lock, _keep_count_lock),
        (held_count_lock_oracle,),
    ),
    Mutant(
        "disarmed-failpoint-works",
        "a disarmed failpoint hook stats the site's fired stamp",
        _replace_body(registry.failpoint, _stamp_checking_failpoint),
        (disarmed_cost_oracle,),
    ),
    Mutant(
        "pickled-flight-ring",
        "a snapshot pickles the events the flight ring holds",
        lambda mp: mp.setattr(
            Simulator, "__getstate__",
            _pickled_flight_ring(Simulator.__getstate__),
        ),
        (snapshot_restore_oracle,),
    ),
    Mutant(
        "ring-pause-sample",
        "a continued run tells the pause sample by the flight ring",
        lambda mp: mp.setattr(
            WorkloadManager, "_drop_pause_sample", _ring_pause_sample
        ),
        (restored_pause_parity_oracle, ringless_pause_parity_oracle),
    ),
    Mutant(
        "late-priority-flush",
        "the pending priorities are written after the jobs are pickled",
        lambda mp: mp.setattr(
            WorkloadManager, "__getstate__", _unflushed_getstate
        ),
        (eager_bytes_oracle, snapshot_restore_oracle),
    ),
    Mutant(
        "stale-running-map",
        "a release leaves the job in the kept running-job map",
        lambda mp: mp.setattr(
            WorkloadManager, "_release",
            _stale_running_release(WorkloadManager._release),
        ),
        (predicted_differential_oracle,),
    ),
    Mutant(
        "unbumped-rate-refresh",
        "a rate refresh leaves the kept work rate valid",
        lambda mp: mp.setattr(
            WorkloadManager, "_refresh_rate",
            _unbumped_refresh(WorkloadManager._refresh_rate),
        ),
        (kept_work_rate_oracle,),
    ),
    Mutant(
        "forgotten-rejoinable-group",
        "a co-runner left alone by a release is missing from the kept groups",
        lambda mp: mp.setattr(
            WorkloadManager, "_release",
            _forgetful_release(WorkloadManager._release),
        ),
        (group_memory_oracle,),
    ),
    Mutant(
        "screen-ignores-groups",
        "the backfill screen rules out a job that could join resident groups",
        lambda mp: mp.setattr(AvailabilityView, "rules_out", _groupless_screen),
        (differential_oracle,),
    ),
)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_oracle_kills_mutant(mutant, monkeypatch):
    for oracle in mutant.oracles:
        oracle()
    mutant.plant(monkeypatch)
    for oracle in mutant.oracles:
        with pytest.raises(AssertionError):
            oracle()
