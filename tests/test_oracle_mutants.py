"""Planted bugs that named oracles must catch.

Each mutant is one ``monkeypatch`` of a function in ``src/repro``.  For
each, the test names the oracle that must fail and runs it on a fixed,
small example set: the mutant is killed when the oracle raises
``AssertionError``.  The same oracle must pass on the same examples
without the mutant, so a kill is the mutant's doing.  A mutant that
survives means the oracle has lost the power it was written for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.slurm.priority import MultifactorPriority
from tests import test_snapshot
from tests.test_engine_differential import Scenario, assert_engines_agree
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


def differential_oracle() -> None:
    """The indexed engine against the reference engine, which scores
    every pending job from scratch on every pass."""
    for strategy in ("easy_backfill", "shared_backfill"):
        assert_engines_agree(Scenario(
            seed=3, strategy=strategy, num_jobs=50, nodes=16,
            share_fraction=0.9, failures=True, requeue_backoff=400.0,
        ))


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


def snapshot_pin_oracle() -> None:
    """Pinned snapshot bytes of a mid-run manager, of it restored, and
    of the restored manager run on."""
    test_snapshot.TestSnapshotBytesPinned().test_bytes_match_pin()


@dataclass(frozen=True)
class Mutant:
    name: str
    #: What the planted bug does.
    summary: str
    #: Applies the mutant through the given ``monkeypatch``.
    plant: Callable[[pytest.MonkeyPatch], None]
    #: The oracle that must fail with the mutant planted.
    oracle: Callable[[], None]


MUTANTS = (
    Mutant(
        "stale-fairshare",
        "charge leaves the kept fairshare term stale",
        lambda mp: mp.setattr(MultifactorPriority, "charge", _stale_charge),
        differential_oracle,
    ),
    Mutant(
        "presummed-static-term",
        "the kept static term pre-adds size and QoS",
        lambda mp: mp.setattr(
            MultifactorPriority, "terms",
            _presummed_terms(MultifactorPriority.terms),
        ),
        order_oracle,
    ),
    Mutant(
        "uninterned-restore",
        "a restored priority keeps its attribute names uninterned",
        lambda mp: mp.setattr(
            MultifactorPriority, "__setstate__", _uninterned_setstate
        ),
        snapshot_pin_oracle,
    ),
)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_oracle_kills_mutant(mutant, monkeypatch):
    mutant.oracle()
    mutant.plant(monkeypatch)
    with pytest.raises(AssertionError):
        mutant.oracle()
