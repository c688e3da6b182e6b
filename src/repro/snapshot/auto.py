"""Periodic auto-snapshot: event- or wall-clock-triggered.

An :class:`AutoSnapshotter`, passed to one
:meth:`~repro.slurm.manager.WorkloadManager.run` call, is offered the
simulator after every dispatch and rewrites the run's snapshot file
whenever the configured budget (dispatched events and/or real seconds
since the last write) is exhausted.  Snapshot writes are atomic (see
:mod:`repro.snapshot.state`), so the file on disk is always the
*latest complete* snapshot; a SIGKILL or OOM kill between writes
costs at most one interval of re-simulation.

Write failures (e.g. a full disk) are counted but swallowed — losing
snapshot coverage must not kill an otherwise healthy run; the
store-disk resource guard (:mod:`repro.snapshot.guards`) is the layer
that surfaces the underlying condition.
"""

from __future__ import annotations

import time as _wallclock
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator
    from repro.slurm.manager import WorkloadManager


def parse_snapshot_every(text: str | None) -> tuple[int | None, float | None]:
    """Parse a ``--snapshot-every`` spec into (events, wall seconds).

    ``"5000e"`` → every 5000 dispatched events; ``"30"`` or ``"30s"``
    → every 30 real seconds; ``""``/``"0"``/``None`` → disabled
    (both components ``None``).
    """
    if text is None:
        return None, None
    text = str(text).strip().lower()
    if not text or text == "0":
        return None, None
    try:
        if text.endswith("e"):
            events = int(text[:-1])
            if events < 1:
                raise ValueError
            return events, None
        seconds = float(text[:-1] if text.endswith("s") else text)
        if seconds <= 0:
            raise ValueError
        return None, seconds
    except ValueError:
        raise ConfigError(
            f"invalid snapshot interval {text!r}: use seconds "
            f"(e.g. '30', '2.5s') or an event count (e.g. '5000e')"
        ) from None


class AutoSnapshotter:
    """Rewrites a run's snapshot file on a periodic trigger.

    Parameters
    ----------
    manager:
        The :class:`~repro.slurm.manager.WorkloadManager` whose state
        is captured.
    path:
        Snapshot file destination (rewritten in place, atomically).
    spec_hash:
        Content hash of the run params, stamped into every header so
        restores can detect stale snapshots.
    every_events / every_wall_s:
        Trigger budgets; at least one must be set.  Both set means
        "whichever fires first".
    """

    def __init__(
        self,
        manager: "WorkloadManager",
        path: str | Path,
        spec_hash: str | None = None,
        every_events: int | None = None,
        every_wall_s: float | None = None,
        clock: Callable[[], float] = _wallclock.perf_counter,
    ) -> None:
        if every_events is None and every_wall_s is None:
            raise ConfigError(
                "AutoSnapshotter needs every_events and/or every_wall_s"
            )
        if every_events is not None and every_events < 1:
            raise ConfigError(f"every_events must be >= 1, got {every_events}")
        if every_wall_s is not None and every_wall_s <= 0:
            raise ConfigError(f"every_wall_s must be > 0, got {every_wall_s}")
        self.manager = manager
        self.path = Path(path)
        self.spec_hash = spec_hash
        self.every_events = every_events
        self.every_wall_s = every_wall_s
        self._clock = clock
        self.written = 0
        self.write_failures = 0
        self._anchor_events = manager.sim.events_dispatched
        self._anchor_wall = clock()

    # ------------------------------------------------------------------
    def due(self, sim: "Simulator") -> bool:
        if (
            self.every_events is not None
            and sim.events_dispatched - self._anchor_events >= self.every_events
        ):
            return True
        if (
            self.every_wall_s is not None
            and self._clock() - self._anchor_wall >= self.every_wall_s
        ):
            return True
        return False

    def maybe_fire(self, sim: "Simulator") -> bool:
        """Called by the engine after each dispatch; snapshots if due."""
        if not self.due(sim):
            return False
        self.fire()
        return True

    def fire(self) -> None:
        """Write one snapshot now and reset the trigger budgets."""
        from repro.snapshot.state import write_snapshot

        try:
            write_snapshot(self.manager, self.path, spec_hash=self.spec_hash)
        except OSError:
            self.write_failures += 1
        else:
            self.written += 1
        self._anchor_events = self.manager.sim.events_dispatched
        self._anchor_wall = self._clock()
