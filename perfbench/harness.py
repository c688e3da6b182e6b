"""Shared timing, percentile and result helpers for every workload.

Timing follows one rule everywhere.  A workload splits its set-up and
its timed phase into *units*, whole calls into the program that do the
same work in every repetition (one simulation, a block of replay
windows, one campaign, one followed submission), and repeats the same
work on the same inputs for the whole measuring window.

The shared hosts this runs on change speed by up to 1.6x within
seconds and drift over minutes, so a unit's wall time is not what the
benchmark reports.  The benchmark's own fixed reference loop
(:func:`reference_loop`, a small pure-Python scheduler) runs right
before and right after every unit, and the unit's time is expressed in
*reference seconds*: its wall time times ``REFERENCE_S`` over the
faster of those two reference runs (:class:`Pacer`).  The program's
speed relative to the host's at that moment is what stays.  The faster
reference run is used because contention only ever adds time, so a
slow one is the noisy one.  Each unit's figure is then its minimum over
the repetitions, and a phase's time is the sum of those minima
(:func:`fastest_total`).  Set-up units are cheap, so each is attempted
``SETUPS`` times per repetition (:func:`fastest_setup`).  Set-up is
timed in CPU time of the thread doing it (``time.thread_time``): a
set-up of a millisecond or a fraction of a second is otherwise ruled
by how long the disk takes to flush a file, which stays in one of two
modes for minutes at a time.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
#: Repetitions per run at the least, so that each unit's minimum has
#: a choice.
MIN_REPS = 3
#: Attempts per set-up unit and repetition.
SETUPS = 3
#: The reference loop's time on the host the figures are expressed
#: for: about its time on a two-vCPU cloud host at its fast speed.
REFERENCE_S = 0.006
#: Latency charged to a failed or refused request (the client's
#: timeout), so that it misses any latency limit.
FAILED_LATENCY_S = 30.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least *q*
    percent of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(
    samples: Sequence[float], min_beyond: int = MIN_BEYOND
) -> tuple[float, float, int]:
    """The highest percentile with at least *min_beyond* samples beyond
    it, as ``(percentile, value, sample_count)``.

    Raises ``ValueError`` when there are too few samples for any
    percentile to qualify.
    """
    n = len(samples)
    if n <= min_beyond:
        raise ValueError(
            f"{n} samples leave no percentile with {min_beyond} beyond it"
        )
    q = 100.0 * (n - min_beyond) / n
    return q, sorted(samples)[n - min_beyond - 1], n


def min_per_op(
    reps: Sequence[Sequence[float | None]], penalty: float = FAILED_LATENCY_S
) -> list[float]:
    """Per-operation minimum across repetitions of the same operations.

    ``None`` marks an operation that failed.  A position that failed in
    any repetition is charged *penalty*, so a success elsewhere never
    hides a failure.
    """
    if not reps:
        raise ValueError("no repetitions")
    width = len(reps[0])
    if any(len(rep) != width for rep in reps):
        raise ValueError("repetitions timed different operation counts")
    return [
        penalty if any(t is None for t in times) else min(times)
        for times in zip(*reps)
    ]


def fastest_total(units: Sequence[Sequence[float]]) -> float:
    """Sum over unit positions of each position's fastest time; one
    list of unit times per repetition, in the same order each time."""
    return sum(min_per_op(units))


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of its largest reaped
    child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def repeat_for(
    seconds: float, once: Callable[[int], None], min_reps: int = MIN_REPS
) -> int:
    """Call ``once(rep)`` at least *min_reps* times, and then again as
    long as a call as long as the last one still ends within *seconds*
    of the start; returns the repetition count."""
    started = time.perf_counter()
    rep, last = 0, 0.0
    while rep < min_reps or time.perf_counter() - started + last <= seconds:
        _, last = timed(lambda: once(rep))
        rep += 1
    return rep


def timed(fn: Callable[[], T]) -> tuple[T, float]:
    """``fn()`` and its wall time."""
    started = time.perf_counter()
    made = fn()
    return made, time.perf_counter() - started


def reference_loop() -> int:
    """A fixed pure-Python workload: 250 jobs through a priority queue
    on 64 nodes, with the dict, sort, heap and tuple traffic of the
    program's scheduler loop.  It never changes, so a change to the
    program cannot move it."""
    rng = random.Random(7)
    sizes = [rng.choice((1, 2, 4, 8, 16)) for _ in range(250)]
    runtimes = [rng.expovariate(1 / 50.0) for _ in range(250)]
    keys = [(-rng.random(), job) for job in range(250)]
    events = [(0.3 * job, 0, job) for job in range(250)]
    pending: dict[int, tuple[float, int]] = {}
    free, done = 64, 0
    while events:
        now, kind, job = heapq.heappop(events)
        if kind == 0:
            pending[job] = keys[job]
        else:
            free += sizes[job]
            done += 1
        for _, waiting in sorted(pending.values()):
            if sizes[waiting] <= free:
                free -= sizes[waiting]
                del pending[waiting]
                heapq.heappush(events, (now + runtimes[waiting], 1, waiting))
    return done


#: Every reference loop time measured in this process, for the report.
REFERENCE_TIMES: list[float] = []


def reference_run() -> float:
    """Run the reference loop once; its wall time."""
    _, took = timed(reference_loop)
    REFERENCE_TIMES.append(took)
    return took


def reference_s(seconds: float, *references: float) -> float:
    """*seconds* of wall time in reference seconds, against the fastest
    of the reference loop's *references* times."""
    return seconds * REFERENCE_S / min(references)


class Pacer:
    """Times consecutive units of work in reference seconds.

    :meth:`boundary` ends the running unit, if any, runs the reference
    loop outside every unit, and starts the next unit; :meth:`stop`
    ends the running unit without starting another.  ``units`` holds
    each ended unit's time on *clock* (wall time by default) times
    ``REFERENCE_S`` over the faster of the reference runs at its two
    ends.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.units: list[float] = []
        self._clock = clock
        self._reference: float | None = None
        self._since = 0.0

    def boundary(self) -> None:
        ended = self._clock()
        reference = reference_run()
        if self._reference is not None:
            self.units.append(reference_s(ended - self._since,
                                          self._reference, reference))
        self._reference = reference
        self._since = self._clock()

    def stop(self) -> None:
        self.boundary()
        self._reference = None


def paced(
    fn: Callable[[], T], clock: Callable[[], float] = time.perf_counter
) -> tuple[T, float]:
    """``fn()`` and its time on *clock* in reference seconds."""
    pacer = Pacer(clock)
    pacer.boundary()
    made = fn()
    pacer.stop()
    return made, pacer.units[0]


def fastest_setup(
    make: Callable[[int], tuple[T, float]],
    undo: Callable[[T], None],
    times: int = SETUPS,
) -> tuple[T, float]:
    """Call ``make(attempt)``, which returns what it set up and how
    long that took, *times* times, undoing every result but the last;
    returns the last result and the fastest time."""
    best = math.inf
    for attempt in range(times):
        made, took = make(attempt)
        best = min(best, took)
        if attempt < times - 1:
            undo(made)
    return made, best


def sha256_hex(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


@dataclass
class Rep:
    """One repetition of a workload's timed phase.

    ``setups`` and ``units`` hold the times of the set-up's and of the
    timed phase's units, each the same pieces in the same order in every
    repetition (a set-up unit is the fastest of its attempts), and
    ``jobs`` are the jobs the timed phase completed.  A service workload
    fills ``create_s`` and ``read_s`` with one list per request burst,
    holding the latency at each burst position (the same positions in
    every burst, ``None`` where the request failed).  ``layer`` holds
    per-layer figures the workload reads from records the program
    writes anyway (store records, queue sidecars, admission counters).
    """

    setups: list[float]
    units: list[float]
    jobs: float
    digest: str
    attempted: int
    failed: int = 0
    create_s: list[list[float | None]] = field(default_factory=list)
    read_s: list[list[float | None]] = field(default_factory=list)
    checks: list[tuple[bool, str]] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


@dataclass
class Outcome:
    """What one workload run reports.

    ``metrics`` maps a metric name to ``(value, unit)``; ``notes`` are
    printed for people and left out of the result line.
    """

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, what: str) -> None:
        """Record an output check; a failed one counts as a failed op."""
        if not ok:
            self.mismatches.append(what)
            self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def as_result(self, names: Sequence[str]) -> dict[str, object]:
        """The result line: exactly the metrics in *names*."""
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0],
                       "unit": self.metrics[name][1]}
                for name in names
            },
        }
