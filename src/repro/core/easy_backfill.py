"""EASY (aggressive) backfill, exclusive allocation.

The classic Mu'alem & Feitelson algorithm and SLURM's default
``sched/backfill`` behaviour with one reservation:

1. *Greedy phase* — start jobs in priority order until one (the
   *head*) does not fit.
2. *Reservation* — compute the head's **shadow time**: the earliest
   time enough nodes will be free, assuming running jobs hold their
   nodes until their walltime bounds.  Nodes beyond the head's need at
   shadow time are the **extra** nodes.
3. *Backfill phase* — a lower-priority job may start now iff it fits
   on idle nodes and either finishes (by its walltime bound) before
   the shadow time, or uses no more than the extra nodes — so the
   head's reservation is never delayed.
"""

from __future__ import annotations

from repro.cluster.allocation import AllocationKind
from repro.core.placement import place_exclusive
from repro.core.selector import AvailabilityView
from repro.core.strategy import (
    Placement,
    ScheduleContext,
    Strategy,
    raise_release_bounds,
)
from repro.slurm.job import Job


def node_release_times(
    ctx: ScheduleContext, placements: list[Placement]
) -> list[float]:
    """Walltime-bound release time of every currently occupied node.

    Computed per *node* (not per job).  Starts from the manager's
    maintained per-node bounds when the context carries them
    (``ctx.release_bounds``), else walks every running job.  Includes
    nodes granted by *placements* made earlier in this pass.
    """
    if ctx.release_bounds is not None:
        bounds = dict(ctx.release_bounds)
    else:
        bounds = {}
        for job in ctx.running.values():
            assert job.allocation is not None
            raise_release_bounds(
                bounds, job.allocation.node_ids, ctx.predicted_end(job)
            )
    for placement in placements:
        raise_release_bounds(
            bounds, placement.node_ids,
            ctx.now + ctx.walltime_bound(placement.job, placement.kind),
        )
    return sorted(bounds.values())


def compute_reservation(
    ctx: ScheduleContext,
    view: AvailabilityView,
    head: Job,
    placements: list[Placement],
) -> tuple[float, int]:
    """Shadow time and extra-node count for the blocked *head* job.

    Returns ``(inf, idle_count)`` if the head can never fit (request
    larger than the cluster) — admission control should have rejected
    such a job, so this is purely defensive.
    """
    need = head.num_nodes
    free = view.idle_count
    if free >= need:
        return ctx.now, free - need
    # Each release frees one node: the head fits, with no node to
    # spare, at the (need - free)-th earliest release.
    times = node_release_times(ctx, placements)
    if need - free <= len(times):
        return times[need - free - 1], 0
    return float("inf"), free


class EasyBackfillStrategy(Strategy):
    """Exclusive EASY backfill."""

    name = "easy_backfill"
    wants_periodic_pass = True

    def schedule(self, ctx: ScheduleContext) -> list[Placement]:
        view = ctx.view = AvailabilityView(ctx)
        placements: list[Placement] = []
        queue = ctx.pending
        index = 0
        while index < len(queue):
            placement = place_exclusive(queue[index], view)
            if placement is None:
                break
            placements.append(placement)
            index += 1
        if index >= len(queue):
            return placements

        head = queue[index]
        shadow, extra = compute_reservation(ctx, view, head, placements)

        for job in queue[index + 1 :]:
            if view.idle_count == 0:
                break
            if job.num_nodes > view.idle_count:
                continue
            end_bound = ctx.now + ctx.walltime_bound(job, AllocationKind.EXCLUSIVE)
            runs_past_shadow = end_bound > shadow
            if runs_past_shadow and job.num_nodes > extra:
                continue
            placement = place_exclusive(job, view)
            assert placement is not None  # guarded by idle_count check
            placements.append(placement)
            if runs_past_shadow:
                extra -= job.num_nodes
        return placements
