"""Structured campaign progress: events, throughput, ETA, JSONL log.

The runner emits one :class:`ProgressEvent` per run state change
(started / completed / failed / cached / retry).  The CLI renders them
as one-line updates; :class:`JsonlProgressLog` records them for later
analysis of campaign behaviour (queueing, retry storms, throughput
over time).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Event kinds, in the vocabulary the JSONL log and tests rely on.
STARTED = "started"
COMPLETED = "completed"
FAILED = "failed"
CACHED = "cached"
RETRY = "retry"
QUARANTINED = "quarantined"
#: Run checkpointed and parked mid-flight (shutdown or guard shed);
#: a later ``repro resume`` continues it from its snapshot.
SUSPENDED = "suspended"
#: A resource guard tripped (RSS budget, disk watermark) — campaign-
#: level, so ``run_id`` may be empty.
GUARD = "guard"


@dataclass(frozen=True)
class ProgressEvent:
    """One state change of one run, with campaign-level counters."""

    kind: str
    run_id: str
    label: str
    #: Runs finished so far (completed + failed + cached + quarantined).
    done: int
    total: int
    completed: int
    failed: int
    cached: int
    #: Seconds since the campaign started.
    elapsed_s: float
    #: Executed (non-cached) terminal runs per second so far.
    throughput_rps: float
    #: Estimated seconds to campaign completion (NaN while unknown;
    #: null in :meth:`as_dict`).
    eta_s: float
    attempt: int = 1
    error: str | None = None
    #: Poison runs isolated so far (see repro.diagnostics.quarantine).
    quarantined: int = 0
    #: Runs parked mid-flight with a snapshot (see repro.snapshot).
    suspended: int = 0

    def as_dict(self) -> dict[str, object]:
        # Every field is a str, a number or None, so a shallow copy of
        # the fields (declaration order) is what ``asdict`` would build
        # by deep copy.
        data = dict(vars(self))
        if self.eta_s != self.eta_s:
            # An unknown ETA is null: strict JSON has no NaN.
            data["eta_s"] = None
        if not data["quarantined"]:
            # Quarantine-free campaigns keep the pre-diagnostics JSONL
            # schema byte for byte.
            del data["quarantined"]
        if not data["suspended"]:
            # Likewise uninterrupted campaigns keep the pre-snapshot
            # schema.
            del data["suspended"]
        return data

    def render(self) -> str:
        """One-line human-readable form for terminal progress."""
        parts = [
            f"[{self.done}/{self.total}]",
            f"{self.kind:<9}",
            self.label or self.run_id,
        ]
        if self.kind == RETRY:
            parts.append(f"(attempt {self.attempt})")
        if self.error:
            parts.append(f"— {self.error}")
        counters = (
            f"ok={self.completed} cached={self.cached} failed={self.failed}"
        )
        if self.quarantined:
            counters += f" quarantined={self.quarantined}"
        if self.suspended:
            counters += f" suspended={self.suspended}"
        timing = f"{self.elapsed_s:6.1f}s"
        if self.throughput_rps > 0:
            timing += f" {self.throughput_rps:.2f} runs/s"
        if self.eta_s == self.eta_s:  # not NaN
            timing += f" eta {self.eta_s:.0f}s"
        return f"{' '.join(parts)}  |  {counters}  |  {timing}"


class ProgressTracker:
    """Counts run outcomes and derives throughput and ETA."""

    def __init__(
        self,
        total: int,
        clock: Callable[[], float] = time.monotonic,
        sink: Callable[[ProgressEvent], None] | None = None,
    ) -> None:
        self.total = total
        self.completed = 0
        self.failed = 0
        self.cached = 0
        self.retries = 0
        self.quarantined = 0
        self.suspended = 0
        self._clock = clock
        self._t0 = clock()
        self._sink = sink
        self.events: list[ProgressEvent] = []

    @property
    def done(self) -> int:
        return self.completed + self.failed + self.cached + self.quarantined

    def emit(
        self,
        kind: str,
        run_id: str,
        label: str = "",
        attempt: int = 1,
        error: str | None = None,
    ) -> ProgressEvent:
        if kind == COMPLETED:
            self.completed += 1
        elif kind == FAILED:
            self.failed += 1
        elif kind == CACHED:
            self.cached += 1
        elif kind == RETRY:
            self.retries += 1
        elif kind == QUARANTINED:
            self.quarantined += 1
        elif kind == SUSPENDED:
            # Deliberately not part of done: a suspended run is parked,
            # not finished, and resume will complete it.
            self.suspended += 1
        elapsed = self._clock() - self._t0
        executed = self.completed + self.failed
        throughput = executed / elapsed if elapsed > 0 and executed else 0.0
        remaining = self.total - self.done
        eta = remaining / throughput if throughput > 0 else float("nan")
        event = ProgressEvent(
            kind=kind,
            run_id=run_id,
            label=label,
            done=self.done,
            total=self.total,
            completed=self.completed,
            failed=self.failed,
            cached=self.cached,
            elapsed_s=elapsed,
            throughput_rps=throughput,
            eta_s=eta,
            attempt=attempt,
            error=error,
            quarantined=self.quarantined,
            suspended=self.suspended,
        )
        self.events.append(event)
        if self._sink is not None:
            self._sink(event)
        return event


class JsonlProgressLog:
    """Appends every event as one JSON line; usable as a tracker sink."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def __call__(self, event: ProgressEvent) -> None:
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")


def tee(*sinks: Callable[[ProgressEvent], None]) -> Callable[[ProgressEvent], None]:
    """Combine several event sinks into one."""

    def fanout(event: ProgressEvent) -> None:
        for sink in sinks:
            sink(event)

    return fanout
