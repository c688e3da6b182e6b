"""Shared Backfill — the paper's co-allocation-aware EASY extension
(contribution).

EASY's structure is preserved — greedy phase, one reservation for the
blocked head, backfill behind it — with sharing woven into each step:

* **Greedy phase**: each job tries a shared placement first
  (compatible lanes, then idle nodes opened shared), falling back to
  exclusive.  A shareable head blocked on idle-node count may thus
  still start immediately inside the lanes of compatible running jobs.
* **Reservation**: node release bounds already incorporate the
  dilation grace of shared jobs (their walltime limits were stretched
  at start), so the shadow-time computation stays sound under sharing.
* **Backfill phase**: lane capacity is *free* with respect to the
  reservation — a job placed purely into lanes occupies no idle node
  and therefore can never delay the head, regardless of its length.
  Only the idle-node portion of a placement is subject to the usual
  EASY window condition (finish before shadow, or fit in the extra
  nodes).

With no shareable jobs in the queue the strategy reduces exactly to
EASY backfill (verified by an integration test).
"""

from __future__ import annotations

from repro.cluster.allocation import AllocationKind
from repro.core.easy_backfill import compute_reservation
from repro.core.placement import (
    place_best,
    place_exclusive,
    place_join,
    place_open_shared,
)
from repro.core.selector import AvailabilityView
from repro.core.strategy import Placement, ScheduleContext, Strategy
from repro.slurm.job import Job


class SharedBackfillStrategy(Strategy):
    """Co-allocation-aware EASY backfill."""

    name = "shared_backfill"
    wants_periodic_pass = True

    def schedule(self, ctx: ScheduleContext) -> list[Placement]:
        view = ctx.view = AvailabilityView(ctx)
        placements: list[Placement] = []
        queue = ctx.pending
        index = 0
        while index < len(queue):
            placement = place_best(queue[index], ctx, view)
            if placement is None:
                break
            placements.append(placement)
            index += 1
        if index >= len(queue):
            return placements

        head = queue[index]
        shadow, extra = compute_reservation(ctx, view, head, placements)

        for job in queue[index + 1 :]:
            if view.idle_count == 0 and not view.has_groups:
                break
            if view.rules_out(job):
                continue
            idle_before = view.idle_count
            placement = self._backfill_one(job, ctx, view, shadow, extra)
            if placement is None:
                continue
            placements.append(placement)
            end_bound = ctx.now + ctx.walltime_bound(job, placement.kind)
            if end_bound > shadow:
                # Only the idle-node portion can eat into the extra
                # budget; lane nodes were never idle.
                extra -= idle_before - view.idle_count
        return placements

    def _backfill_one(
        self,
        job: Job,
        ctx: ScheduleContext,
        view: AvailabilityView,
        shadow: float,
        extra: int,
    ) -> Placement | None:
        """Try to backfill one job without delaying the reservation."""
        if job.spec.shareable:
            # Joining resident groups consumes no idle node, so it can
            # never delay the head's reservation — backfill it freely.
            placement = place_join(job, ctx, view)
            if placement is not None:
                return placement
            # Opening idle nodes shared consumes idle capacity: a
            # placement that may outlive the shadow time must fit in
            # the extra budget; one that provably ends first may use
            # any idle node.
            shared_end = ctx.now + ctx.walltime_bound(job, AllocationKind.SHARED)
            if shared_end <= shadow:
                idle_budget = view.idle_count
            else:
                idle_budget = min(view.idle_count, max(0, extra))
            placement = place_open_shared(job, ctx, view, idle_budget=idle_budget)
            if placement is not None:
                return placement

        exclusive_end = ctx.now + ctx.walltime_bound(job, AllocationKind.EXCLUSIVE)
        if exclusive_end <= shadow or job.num_nodes <= extra:
            return place_exclusive(job, view)
        return None
