"""Shared placement helpers used by several strategies.

These functions *consume* from the pass-local
:class:`~repro.core.selector.AvailabilityView` when they succeed, and
leave it untouched when they fail, so strategies can probe
alternatives safely.

Shared placements follow the **full-overlap rule** (see
``selector.py``): a joiner covers one or more compatible resident
groups whose sizes sum *exactly* to its request — never a partial
overlap, never a lanes-plus-idle mix.  A shareable job that cannot
join opens idle nodes in shared mode instead (running at full speed,
available for a future joiner of matching size).

When the context carries a :class:`~repro.observability.DecisionTrace`
each probe that runs emits one record — an accept, or a reject with
one code from :data:`~repro.observability.REASON_CODES`.  Armed or
not, the same probes run: one the pass's size tests rule out
(``may_cover``, ``rules_out``) never runs, so it records nothing.

These helpers run once per pending job per scheduler pass, so every
rejection goes through :func:`_reject`, which checks for a
streak-suppressed repeat (consulting ``DecisionTrace.streaks``
directly) before any record field is built, rather than paying
keyword-argument construction twenty-odd thousand times per run just
to have ``reject()`` discard the repeat.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.allocation import AllocationKind
from repro.core.selector import AvailabilityView, ResidentGroup
from repro.core.strategy import Placement, ScheduleContext
from repro.slurm.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from repro.observability.trace import DecisionTrace

#: The field a rejection code records beside ``need`` (codes absent
#: here record neither).
_DETAIL_FIELD = {
    "insufficient_idle": "idle",
    "reservation_collision": "budget",
    "no_resident_groups": "groups",
    "interference_cap": "groups",
    "memory": "groups",
    "no_exact_cover": "groups",
}


def _reject(
    decisions: DecisionTrace,
    ctx: ScheduleContext,
    stage: str,
    job: Job,
    code: str,
    need: int = 0,
    detail: int = 0,
) -> None:
    """Record one coded rejection unless it repeats the job's streak."""
    jid = job.spec.job_id
    streak = decisions.streaks.get(jid)
    if streak is not None and streak.get(stage) == code:
        decisions.suppressed += 1
        return
    field = _DETAIL_FIELD.get(code)
    if field is None:
        decisions.reject(ctx.now, stage, jid, code)
    else:
        decisions.reject(ctx.now, stage, jid, code, need=need, **{field: detail})


def place_exclusive(
    job: Job, view: AvailabilityView, idle_budget: int | None = None
) -> Placement | None:
    """Place *job* on idle nodes exclusively, if enough are available
    within *idle_budget* (None = unlimited)."""
    ctx = view.ctx
    decisions = ctx.decisions
    need = job.num_nodes
    idle = view.idle_count
    if need > idle:
        if decisions is not None:
            _reject(decisions, ctx, "exclusive", job, "insufficient_idle",
                    need, idle)
        return None
    if idle_budget is not None and need > idle_budget:
        if decisions is not None:
            _reject(decisions, ctx, "exclusive", job, "reservation_collision",
                    need, idle_budget)
        return None
    node_ids = tuple(view.take_idle(need))
    if decisions is not None:
        decisions.accept(ctx.now, "exclusive", job.job_id, "exclusive", need)
    return Placement(job=job, node_ids=node_ids, kind=AllocationKind.EXCLUSIVE)


def _exact_group_fill(
    groups: list[ResidentGroup], need: int, max_groups: int = 64
) -> list[ResidentGroup] | None:
    """Choose groups whose sizes sum exactly to *need*.

    Tries the single best-scoring exact match first (the common case:
    pairing two same-sized jobs), then solves an exact subset-sum over
    the candidates by dynamic programming, preferring combinations of
    higher-ranked (better-scoring) groups.  Only the *ordering*
    among groups encodes score, which keeps the DP integral: states
    are filled in rank order, so the first combination reaching each
    sum uses the best-ranked prefix.
    """
    for group in groups:
        if group.size == need:
            return [group]
    candidates = groups[:max_groups]
    # reachable[s] = list of group indices forming sum s (first found,
    # which is best-ranked because candidates arrive in score order).
    reachable: dict[int, tuple[int, ...]] = {0: ()}
    for index, group in enumerate(candidates):
        size = group.size
        if size > need:
            continue
        # Iterate a snapshot so each group is used at most once.
        for total, combo in list(reachable.items()):
            new_total = total + size
            if new_total > need or new_total in reachable:
                continue
            new_combo = combo + (index,)
            if new_total == need:
                return [candidates[i] for i in new_combo]
            reachable[new_total] = new_combo
    return None


def _memory_fits(job: Job, group: ResidentGroup) -> bool:
    """Do the joiner's and resident's working sets fit one node's RAM?

    Footprints of 0 mean "unconstrained" (unknown-memory jobs, e.g.
    SWF replays without memory fields, are assumed to fit).
    """
    joiner_mem = job.spec.memory_mb_per_node
    resident_mem = group.job.spec.memory_mb_per_node
    if joiner_mem <= 0 or resident_mem <= 0:
        return True
    return joiner_mem + resident_mem <= group.min_memory_mb


def place_join(
    job: Job, ctx: ScheduleContext, view: AvailabilityView
) -> Placement | None:
    """Co-allocate *job* onto compatible resident groups covering its
    request exactly.  Consumes no idle nodes."""
    decisions = ctx.decisions
    if not job.spec.shareable:
        if decisions is not None:
            _reject(decisions, ctx, "join", job, "not_shareable")
        return None
    need = job.num_nodes
    if not view.may_cover(need):
        # No groups at all sum to *need*, so no compatible ones do.
        return None
    profile = ctx.profile_of(job)
    compatible = view.joinable_groups(profile)
    groups = [
        group for group in compatible if _memory_fits(job, group)
    ]
    fill = _exact_group_fill(groups, need)
    if fill is None:
        if decisions is not None:
            if not view.groups:
                code = "no_resident_groups"
            elif not compatible:
                code = "interference_cap"
            elif not groups:
                code = "memory"
            else:
                code = "no_exact_cover"
            _reject(decisions, ctx, "join", job, code, need, len(groups))
        return None
    node_ids: list[int] = []
    for group in fill:
        view.take_group(group)
        node_ids.extend(group.node_ids)
    if decisions is not None:
        decisions.accept(
            ctx.now, "join", job.job_id, "shared", need,
            residents=[group.job.job_id for group in fill],
        )
    return Placement(job=job, node_ids=tuple(node_ids), kind=AllocationKind.SHARED)


def place_open_shared(
    job: Job,
    ctx: ScheduleContext,
    view: AvailabilityView,
    idle_budget: int | None = None,
) -> Placement | None:
    """Place a shareable *job* on idle nodes opened in shared mode.

    The job runs alone (at full speed — the zero-overhead property)
    until a matching joiner arrives; its free lanes become joinable
    immediately, including later in this same pass.
    """
    decisions = ctx.decisions
    if not job.spec.shareable:
        if decisions is not None:
            _reject(decisions, ctx, "open_shared", job, "not_shareable")
        return None
    if not ctx.allow_open_shared:
        if decisions is not None:
            _reject(decisions, ctx, "open_shared", job,
                    "open_shared_disabled")
        return None
    need = job.num_nodes
    idle = view.idle_count
    if need > idle:
        if decisions is not None:
            _reject(decisions, ctx, "open_shared", job, "insufficient_idle",
                    need, idle)
        return None
    if idle_budget is not None and need > idle_budget:
        if decisions is not None:
            _reject(decisions, ctx, "open_shared", job,
                    "reservation_collision", need, idle_budget)
        return None
    node_ids = view.take_idle(need)
    view.open_shared(node_ids, job, ctx.profile_of(job))
    if decisions is not None:
        decisions.accept(ctx.now, "open_shared", job.job_id, "shared", need)
    return Placement(job=job, node_ids=tuple(node_ids), kind=AllocationKind.SHARED)


def place_best(
    job: Job,
    ctx: ScheduleContext,
    view: AvailabilityView,
    idle_budget: int | None = None,
) -> Placement | None:
    """Sharing-aware placement preference order:

    1. join compatible resident groups (consumes no idle capacity);
    2. open idle nodes in shared mode (shareable jobs);
    3. plain exclusive placement.
    """
    placement = place_join(job, ctx, view)
    if placement is not None:
        return placement
    placement = place_open_shared(job, ctx, view, idle_budget=idle_budget)
    if placement is not None:
        return placement
    return place_exclusive(job, view, idle_budget=idle_budget)
