"""Shared Conservative Backfill — sharing-aware conservative variant.

Completes the strategy matrix ({first-fit, EASY, conservative} ×
{exclusive, shared}): conservative backfill's per-job reservations,
with co-allocation woven in the same way as in
:class:`~repro.core.shared_backfill.SharedBackfillStrategy`:

* a shareable job first tries to **join** compatible resident groups —
  joins consume no idle node and therefore cannot disturb *any*
  reservation in the availability profile;
* otherwise the job books the earliest slot in the availability
  profile, using its grace-stretched walltime bound when it would
  start in shared-open mode (so the profile stays a true upper bound
  under later dilation);
* reservations are rebuilt from scratch each pass, as in the
  exclusive variant.
"""

from __future__ import annotations

from repro.cluster.allocation import AllocationKind
from repro.core.conservative import AvailabilityProfile
from repro.core.easy_backfill import node_release_times
from repro.core.placement import place_exclusive, place_join, place_open_shared
from repro.core.selector import AvailabilityView
from repro.core.strategy import Placement, ScheduleContext, Strategy
from repro.errors import SchedulingError


class SharedConservativeStrategy(Strategy):
    """Co-allocation-aware conservative backfill."""

    name = "shared_conservative"
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
            if job.num_nodes > ctx.cluster.num_nodes:
                continue  # defensive; admission control rejects these

            # Joining lanes is free capacity: it can never disturb the
            # availability profile, so it needs no reservation at all.
            placement = place_join(job, ctx, view)
            if placement is not None:
                placements.append(placement)
                continue
            if job.num_nodes > capacity:
                continue  # waits for repairs

            if job.spec.shareable and ctx.allow_open_shared:
                kind = AllocationKind.SHARED
            else:
                kind = AllocationKind.EXCLUSIVE
            duration = ctx.walltime_bound(job, kind)
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
            if kind is AllocationKind.SHARED:
                placement = place_open_shared(job, ctx, view)
            else:
                placement = place_exclusive(job, view)
            if placement is None:
                raise SchedulingError(
                    f"profile admitted job {job.job_id} now but the view "
                    f"has only {view.idle_count} idle nodes"
                )
            placements.append(placement)
        return placements
