"""Co-allocation pairing policy.

Decides whether two applications should share a node, and ranks
candidate partners.  The *aware* policy consults the interference
model: a pair qualifies when the combined throughput clears a
threshold **and** neither side dilates beyond the walltime grace —
the second condition is what lets the shared strategies promise that
sharing never walltime-kills a job the scheduler itself slowed down.

The *oblivious* variant accepts every pair (subject only to the
dilation bound being ignored as well); it exists for ablation E9,
quantifying how much of the gain comes from pairing knowledge rather
than from sharing as such.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.interference.model import InterferenceModel
from repro.interference.profile import ResourceProfile


@dataclass(frozen=True)
class PairingPolicy:
    """Compatibility predicate + partner ranking.

    Parameters
    ----------
    model:
        The interference model used for predictions.
    threshold:
        Minimum combined throughput (job-units per node-second) for a
        pair to be worth co-allocating; 1.0 would accept anything not
        strictly worse than an exclusive node, the default 1.1 demands
        a 10 % gain (leaving margin for model error, as the paper's
        offline-measured pairing lists do).
    max_dilation:
        Upper bound on either job's predicted dilation; must not
        exceed the manager's walltime grace.
    oblivious:
        Accept all pairs regardless of predictions (ablation mode).

    The policy is frozen, so its verdicts can be memoised per profile
    pair (keyed on the profile values); the memo is not pickled.
    """

    model: InterferenceModel
    threshold: float = 1.1
    max_dilation: float = 2.0
    oblivious: bool = False
    #: (a, b) -> (compatible, score) for the aware policy.
    _verdicts: dict[
        tuple[ResourceProfile, ResourceProfile], tuple[bool, float]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {self.threshold}")
        if self.max_dilation < 1.0:
            raise ConfigError(
                f"max_dilation must be >= 1.0, got {self.max_dilation}"
            )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_verdicts", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # The policy is frozen, so the names are interned by hand, as
        # pickle's default restore does: a restored policy then
        # pickles to the same bytes.
        for name, value in state.items():
            self.__dict__[sys.intern(name)] = value
        self.__dict__["_verdicts"] = {}

    def _verdict(self, a: ResourceProfile, b: ResourceProfile) -> tuple[bool, float]:
        key = (a, b)
        verdict = self._verdicts.get(key)
        if verdict is None:
            speed_a = self.model.speed(a, b)
            speed_b = self.model.speed(b, a)
            min_speed = 1.0 / self.max_dilation
            compatible = (
                speed_a + speed_b >= self.threshold
                and speed_a >= min_speed
                and speed_b >= min_speed
            )
            verdict = self._verdicts[key] = (
                compatible, self.model.pair_throughput(a, b)
            )
        return verdict

    def compatible(self, a: ResourceProfile, b: ResourceProfile) -> bool:
        """Should applications *a* and *b* share a node?"""
        if self.oblivious:
            return True
        return self._verdict(a, b)[0]

    def score(self, a: ResourceProfile, b: ResourceProfile) -> float:
        """Ranking key for candidate partners (higher is better).

        Oblivious mode still needs a deterministic order, so it scores
        everything equally.
        """
        if self.oblivious:
            return 1.0
        return self._verdict(a, b)[1]

    def predicted_speed(
        self, a: ResourceProfile, b: ResourceProfile | None
    ) -> float:
        """Predicted speed of *a* against co-runner *b* (None = alone)."""
        return self.model.speed(a, b)
