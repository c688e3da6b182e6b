"""Conservative backfill, exclusive allocation.

Every queued job receives a reservation (in priority order) against a
step-function *availability profile* of future free-node counts; a job
starts now only when its reservation begins now.  No job is ever
delayed by a lower-priority one — the strongest fairness guarantee in
the backfill family, at the cost of lower packing than EASY.

Like SLURM (``bf_max_job_test``), the number of reservations actually
computed is capped; jobs beyond the cap simply wait for a later pass.
"""

from __future__ import annotations

import bisect
import math

from repro.core.easy_backfill import node_release_times
from repro.core.placement import place_exclusive
from repro.core.selector import AvailabilityView
from repro.core.strategy import Placement, ScheduleContext, Strategy
from repro.cluster.allocation import AllocationKind
from repro.errors import SchedulingError


class AvailabilityProfile:
    """Free-node count as a right-continuous step function of time.

    Breakpoints are kept sorted; ``free[i]`` holds between
    ``times[i]`` (inclusive) and ``times[i+1]`` (exclusive), with the
    last value extending to infinity.
    """

    def __init__(self, start: float, free_now: int):
        self.times: list[float] = [start]
        self.free: list[int] = [free_now]

    def add_release(self, time: float, count: int = 1) -> None:
        """Nodes become free at *time* (and stay free thereafter).

        The nodes are held at the profile's start, so they free just
        after it even when their predicted end is already due (the
        walltime predictor clamps an overdue end to the present).
        """
        start = self.times[0]
        if time <= start:
            time = math.nextafter(start, math.inf)
        self._add_delta(time, count)

    def _index_at(self, time: float) -> int:
        return bisect.bisect_right(self.times, time) - 1

    def _add_delta(self, time: float, delta: int) -> None:
        index = self._index_at(time)
        if index < 0:
            raise SchedulingError(f"profile change before its start: {time}")
        if self.times[index] != time:
            index += 1
            self.times.insert(index, time)
            self.free.insert(index, self.free[index - 1])
        for i in range(index, len(self.times)):
            self.free[i] += delta

    def reserve(self, start: float, duration: float, count: int) -> None:
        """Subtract *count* nodes over [start, start+duration)."""
        self._add_delta(start, -count)
        self._add_delta(start + duration, +count)
        if any(f < 0 for f in self.free):
            raise SchedulingError("reservation drove availability negative")

    def earliest_start(self, duration: float, count: int) -> float:
        """Earliest time *count* nodes stay free for *duration*."""
        for i, candidate in enumerate(self.times):
            end = candidate + duration
            ok = True
            j = i
            while j < len(self.times) and self.times[j] < end:
                if self.free[j] < count:
                    ok = False
                    break
                j += 1
            if ok:
                return candidate
        raise SchedulingError(
            f"no start time found for {count} nodes x {duration}s"
        )


class ConservativeBackfillStrategy(Strategy):
    """Conservative backfill with per-pass reservation rebuilding."""

    name = "conservative"
    wants_periodic_pass = True

    def __init__(self, max_reservations: int = 100):
        if max_reservations < 1:
            raise SchedulingError("max_reservations must be >= 1")
        self.max_reservations = max_reservations

    def schedule(self, ctx: ScheduleContext) -> list[Placement]:
        view = ctx.view = AvailabilityView(ctx)
        placements: list[Placement] = []
        profile = AvailabilityProfile(ctx.now, view.idle_count)
        for release_time in node_release_times(ctx, []):
            if release_time == float("inf"):
                continue
            profile.add_release(release_time)
        # Nodes free once every running job has ended; failed and
        # drained nodes never count, since their return is unknown.
        capacity = profile.free[-1]

        reservations = 0
        for job in ctx.pending:
            if reservations >= self.max_reservations:
                break
            if job.num_nodes > capacity:
                continue  # waits for repairs (or is oversized)
            duration = ctx.walltime_bound(job, AllocationKind.EXCLUSIVE)
            start = profile.earliest_start(duration, job.num_nodes)
            profile.reserve(start, duration, job.num_nodes)
            reservations += 1
            if start > ctx.now:
                if ctx.decisions is not None:
                    ctx.decisions.reject(
                        ctx.now, "reserve", job.job_id,
                        "deferred_reservation",
                        start=start, need=job.num_nodes,
                    )
                continue
            placement = place_exclusive(job, view)
            if placement is None:
                raise SchedulingError(
                    f"profile admitted job {job.job_id} now but the view "
                    f"has only {view.idle_count} idle nodes"
                )
            placements.append(placement)
        return placements
