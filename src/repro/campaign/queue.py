"""Durable multi-process campaign queue: claim, execute, reclaim.

The campaign runner (:mod:`repro.campaign.runner`) is one process
owning a whole store.  This module turns the same store into a
**cooperative drain**: every pending run becomes a claimable *item*
under ``<store>/.queue/``, and any number of worker processes —
``repro queue work <store>``, or the fleet a ``repro campaign
--join`` parent spawns — pull items, execute them, and commit results
through the existing atomic :class:`~repro.campaign.store.ResultStore`
write path.  Workers hold the store's advisory lock in *shared* mode,
so a classic exclusive campaign can never interleave with a drain.

Layout (everything dot-hidden from result globs and fingerprints)::

    <store>/.queue/
        config.json            worker settings (one authority, no flags)
        items/<run_id>.json    pending/claimed work items
        leases/<run_id>.lease  per-claim lease files (see lease.py)
        failed/<run_id>.json   terminal: attempts exhausted
        quarantined/<run_id>.json  terminal: deadline / delivery budget
        logs/worker-<n>.log    join-mode child output

**Claim protocol.**  A worker scans ``items/`` in sorted order and,
for each eligible item (no live lease, ``not_before`` due, delivery
budget left, result not already in the store), tries an ``O_EXCL``
lease create carrying the *provisional* fencing token ``item.token +
1``.  The winner re-reads the item, bumps ``token`` and
``deliveries`` with an atomic rewrite, and stamps the (rarely
different) authoritative token back into its lease.  Losers just move
on — no retries, no waiting.

**Fencing.**  A claim is valid while its token equals the item's
token, and the item file holds exactly one token — so at most one
claim can ever be valid.  The supervisor pass
(:meth:`WorkQueue.reclaim_stale`) bumps the item token *before*
deleting a stale lease; a zombie holder that wakes up later fails the
:meth:`WorkQueue.fence_ok` re-check at the durable-write boundary and
its result is discarded, not merged (the columnar ``append_once``
idempotence marks below it catch even a write that slips through,
because run execution is deterministic).

**Crash-safe commit.**  The commit order is: fence check → result
into the store (atomic) → item removed → lease released.  A crash
between any two steps is recovered without execution: the next
claimant (or reclaim pass) sees the result already in the store and
simply retires the item.

**Degradation ladder** (wired in :class:`QueueWorker`): a disk-space
trip pauses claiming; an RSS trip sheds the leased run back to the
queue (with its snapshot, no delivery penalty) and recycles the
worker; a per-run deadline converts a runaway run into a quarantine
item; SIGTERM requeues the in-flight run and exits 4 (a join parent
SIGKILLs a worker still alive :data:`SUSPEND_GRACE_S` after its
SIGTERM, and the lease is reclaimed); a lost lease (fencing) discards
the in-flight result.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.campaign.lease import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_TTL_S,
    HeartbeatKeeper,
    LeaseDir,
    LeaseLost,
)
from repro.campaign.spec import RunSpec, run_id_of
from repro.campaign.store import ResultStore, StoreLock, result_record
from repro.errors import CampaignError, ConfigError, SuspendRequested
from repro.faultinject import backoff_delay
from repro.snapshot import suspend as _suspend
from repro.snapshot.guards import disk_free_mb, rss_mb_of
from repro.storage.durable import write_atomic

log = logging.getLogger("repro.campaign.queue")

#: Hidden queue directory under a result store.
QUEUE_DIR_NAME = ".queue"

ITEMS_DIR = "items"
LEASES_DIR = "leases"
FAILED_DIR = "failed"
QUARANTINED_DIR = "quarantined"
LOGS_DIR = "logs"
CONFIG_NAME = "config.json"

#: Redelivery budget: a run crash-reclaimed this many times becomes a
#: quarantine item instead of being claimed again.
DEFAULT_MAX_DELIVERIES = 5

#: Worker-fleet respawn budget multiplier for join mode.
RESPAWN_BUDGET_PER_WORKER = 4

#: Seconds a join parent's fleet gets to exit once stopped (SIGTERM on
#: suspend, stdin EOF once drained) before it is SIGKILLed.
SUSPEND_GRACE_S = 10.0

#: Backoff schedule for redelivery ``not_before`` stamps — the same
#: deterministic jittered curve the I/O retry layer uses, scaled up
#: from milliseconds to queue time.
REDELIVERY_BASE_S = 0.25
REDELIVERY_MAX_S = 15.0


@dataclass(frozen=True)
class QueueItem:
    """One durable work item (``items/<run_id>.json``)."""

    run_id: str
    seq: int
    label: str
    params: dict
    token: int = 0
    deliveries: int = 0
    not_before: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "run_id": self.run_id,
            "seq": self.seq,
            "label": self.label,
            "params": self.params,
            "token": self.token,
            "deliveries": self.deliveries,
            "not_before": self.not_before,
        }
        if self.extra:
            out["extra"] = self.extra
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "QueueItem":
        return cls(
            run_id=str(raw["run_id"]),
            seq=int(raw.get("seq", 0)),  # type: ignore[arg-type]
            label=str(raw.get("label", "")),
            params=dict(raw.get("params", {})),  # type: ignore[arg-type]
            token=int(raw.get("token", 0)),  # type: ignore[arg-type]
            deliveries=int(raw.get("deliveries", 0)),  # type: ignore[arg-type]
            not_before=float(raw.get("not_before", 0.0)),  # type: ignore[arg-type]
            extra=dict(raw.get("extra", {})),  # type: ignore[arg-type]
        )


class WorkQueue:
    """The on-disk queue under one store: items, leases, terminals."""

    def __init__(
        self,
        store_root: str | Path,
        *,
        ttl_s: float = DEFAULT_TTL_S,
        max_deliveries: int = DEFAULT_MAX_DELIVERIES,
        clock: Callable[[], float] = time.time,
        alive: Callable[[int, str], bool | None] | None = None,
    ) -> None:
        self.store = ResultStore(store_root)
        self.root = self.store.root / QUEUE_DIR_NAME
        self.items_dir = self.root / ITEMS_DIR
        self.failed_dir = self.root / FAILED_DIR
        self.quarantined_dir = self.root / QUARANTINED_DIR
        self.logs_dir = self.root / LOGS_DIR
        if max_deliveries < 1:
            raise ConfigError(
                f"max_deliveries must be >= 1, got {max_deliveries}"
            )
        self.max_deliveries = max_deliveries
        self._clock = clock
        for sub in (self.items_dir, self.failed_dir,
                    self.quarantined_dir, self.logs_dir):
            sub.mkdir(parents=True, exist_ok=True)
        self.leases = LeaseDir(
            self.root / LEASES_DIR, ttl_s=ttl_s, clock=clock, alive=alive
        )
        #: Optional fleet event sidecar (:class:`~repro.observability.
        #: events.EventLog`).  None by default — the bare queue used by
        #: benchmarks and ad-hoc scripts pays one ``is not None`` test
        #: per lifecycle boundary, nothing more.
        self.events = None

    def arm_events(self) -> None:
        """Attach a per-process event sidecar under ``.queue/metrics/``.

        Idempotent; the sidecar inherits this queue's clock so fake
        -clock tests produce deterministic timelines.
        """
        if self.events is None:
            from repro.observability.events import METRICS_DIR_NAME, EventLog

            self.events = EventLog(
                self.root / METRICS_DIR_NAME, clock=self._clock
            )

    def _emit(self, kind: str, run_id: str | None = None, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, run_id, **fields)

    def close_events(self) -> None:
        """Close the event sidecar's file, if one is open; the queue
        stays armed and a later event reopens it."""
        if self.events is not None:
            self.events.close()

    # ------------------------------------------------------------------
    # Config
    # ------------------------------------------------------------------
    def write_config(self, config: Mapping[str, object]) -> Path:
        path = self.root / CONFIG_NAME
        data = json.dumps(dict(config), sort_keys=True, indent=1).encode(
            "utf-8"
        )
        write_atomic(path, data, write_fp=None)
        return path

    def read_config(self) -> dict[str, object]:
        path = self.root / CONFIG_NAME
        try:
            with path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return {}
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"queue config {str(path)!r} is unreadable: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Item files
    # ------------------------------------------------------------------
    def _item_path(self, run_id: str) -> Path:
        if not run_id or "/" in run_id or run_id.startswith("."):
            raise ConfigError(f"invalid run id {run_id!r}")
        return self.items_dir / f"{run_id}.json"

    def read_item(self, run_id: str) -> QueueItem | None:
        try:
            with self._item_path(run_id).open("r", encoding="utf-8") as fh:
                return QueueItem.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError):
            return None

    def write_item(self, item: QueueItem) -> None:
        data = json.dumps(item.to_dict(), sort_keys=True, indent=1).encode(
            "utf-8"
        )
        write_atomic(
            self._item_path(item.run_id), data, write_fp="queue.item.write"
        )

    def _remove_item(self, run_id: str) -> None:
        self._item_path(run_id).unlink(missing_ok=True)

    def iter_items(self) -> list[QueueItem]:
        """All readable pending items, sorted by enqueue sequence."""
        items = []
        for path in sorted(self.items_dir.glob("*.json")):
            if path.name.startswith("."):
                continue
            item = self.read_item(path.stem)
            if item is not None:
                items.append(item)
        items.sort(key=lambda it: (it.seq, it.run_id))
        return items

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def enqueue(
        self,
        runs: Sequence[RunSpec],
        *,
        extras: Mapping[str, Mapping[str, object]] | None = None,
        reset_terminal: bool = True,
    ) -> int:
        """Idempotently enqueue *runs*; returns how many items exist
        after the pass (excluding runs already complete in the store).

        Runs whose result is already stored are skipped; existing
        items keep their delivery accounting (two racing enqueuers
        write identical fresh items, so the race is benign).  With
        *reset_terminal* (the default, matching how a resumed
        campaign re-attempts failed runs), terminal ``failed/`` and
        ``quarantined/`` entries for re-enqueued runs are cleared.
        """
        pending = 0
        for seq, run in enumerate(runs):
            if self.store.has(run.run_id):
                continue
            pending += 1
            if reset_terminal:
                (self.failed_dir / f"{run.run_id}.json").unlink(
                    missing_ok=True
                )
                (self.quarantined_dir / f"{run.run_id}.json").unlink(
                    missing_ok=True
                )
            if self._item_path(run.run_id).exists():
                continue
            extra = dict((extras or {}).get(run.run_id, {}))
            self.write_item(
                QueueItem(
                    run_id=run.run_id,
                    seq=seq,
                    label=run.label,
                    params=dict(run.params),
                    extra=extra,
                )
            )
            self._emit(
                "enqueue", run.run_id, seq=seq, trace=extra.get("trace")
            )
        return pending

    # ------------------------------------------------------------------
    # Claim / fence / commit
    # ------------------------------------------------------------------
    def claim_next(self) -> tuple[QueueItem, int] | None:
        """Claim the first eligible item; ``(item, token)`` or None.

        The returned *item* reflects the post-claim state (token and
        delivery count bumped); *token* is the claim's fencing token.
        """
        now = self._clock()
        for item in self.iter_items():
            run_id = item.run_id
            if self.store.has(run_id):
                # Crash between result commit and item removal:
                # finish the retirement, no execution needed.
                self._remove_item(run_id)
                continue
            if item.not_before > now:
                continue
            if self.leases.path_for(run_id).exists():
                continue
            if item.deliveries >= self.max_deliveries:
                self.quarantine_item(
                    item,
                    reason=(
                        f"delivery budget exhausted "
                        f"({item.deliveries}/{self.max_deliveries} "
                        f"deliveries reclaimed from dead or stalled "
                        f"workers)"
                    ),
                )
                continue
            if not self.leases.claim(run_id, item.token + 1):
                continue  # lost the race; the winner has it
            fresh = self.read_item(run_id)
            if fresh is None or self.store.has(run_id):
                # Completed (or retired) between scan and claim.
                if fresh is not None:
                    self._remove_item(run_id)
                self.leases.force_remove(run_id)
                continue
            token = fresh.token + 1
            claimed = replace(
                fresh, token=token, deliveries=fresh.deliveries + 1
            )
            self.write_item(claimed)
            if token != item.token + 1:
                # The item advanced between scan and claim (a full
                # claim/requeue cycle slipped in); restamp the lease
                # with the authoritative token.  Safe: the lease is
                # milliseconds old, far inside the reclaim TTL.
                self.leases.rewrite(run_id, token)
            self._emit(
                "claim",
                run_id,
                token=token,
                deliveries=claimed.deliveries,
                trace=claimed.extra.get("trace"),
            )
            return claimed, token
        return None

    def fence_ok(self, run_id: str, token: int) -> bool:
        """May a holder with *token* commit durable state for
        *run_id*?  False once the claim was reclaimed (superseded
        token) or the item retired."""
        item = self.read_item(run_id)
        return item is not None and item.token == token

    def complete(self, run_id: str, token: int) -> None:
        """Retire a committed run: remove the item, release the lease.

        Called *after* the result is in the store.  The token guard
        means a zombie that somehow got here after a reclaim cannot
        retire the successor's item.
        """
        item = self.read_item(run_id)
        if item is not None and item.token == token:
            self._emit(
                "complete", run_id, token=token,
                trace=item.extra.get("trace"),
            )
            self._remove_item(run_id)
        self.leases.release(run_id)

    def requeue(
        self,
        item: QueueItem,
        token: int,
        *,
        penalty: bool,
        snapshot: str | None = None,
        reason: str = "",
    ) -> bool:
        """Voluntarily hand a claimed run back to the queue.

        Used by the degradation ladder (RSS shed, SIGTERM drain):
        *penalty* ``False`` refunds the delivery this claim consumed,
        so a worker shed by a resource guard does not march the run
        toward the quarantine budget.  Returns False when the claim
        was already fenced (nothing to hand back).
        """
        fresh = self.read_item(item.run_id)
        if fresh is None or fresh.token != token:
            return False
        deliveries = fresh.deliveries if penalty else fresh.deliveries - 1
        not_before = (
            self._clock()
            + backoff_delay(
                max(1, deliveries),
                base_delay_s=REDELIVERY_BASE_S,
                max_delay_s=REDELIVERY_MAX_S,
            )
            if penalty
            else 0.0
        )
        extra = dict(fresh.extra)
        if snapshot:
            extra["snapshot"] = snapshot
        if reason:
            extra["requeued"] = reason
        self.write_item(
            replace(
                fresh,
                deliveries=max(0, deliveries),
                not_before=not_before,
                extra=extra,
            )
        )
        self._emit(
            "requeue",
            item.run_id,
            token=token,
            reason=reason or None,
            trace=extra.get("trace"),
        )
        self.leases.release(item.run_id)
        return True

    # ------------------------------------------------------------------
    # Terminal states
    # ------------------------------------------------------------------
    def _terminate(
        self, item: QueueItem, target: Path, payload: dict[str, object]
    ) -> None:
        data = json.dumps(payload, sort_keys=True, indent=1).encode("utf-8")
        write_atomic(target / f"{item.run_id}.json", data, write_fp=None)
        self._remove_item(item.run_id)

    def fail_item(self, item: QueueItem, token: int, error: str) -> bool:
        """Terminal failure (attempts exhausted); token-guarded."""
        fresh = self.read_item(item.run_id)
        if fresh is None or fresh.token != token:
            return False
        doc = fresh.to_dict()
        doc["error"] = error
        doc["status"] = "failed"
        self._terminate(fresh, self.failed_dir, doc)
        self._emit(
            "failed", item.run_id, token=token,
            trace=fresh.extra.get("trace"),
        )
        self.leases.release(item.run_id)
        return True

    def quarantine_item(
        self, item: QueueItem, *, reason: str, token: int | None = None
    ) -> bool:
        """Terminal quarantine (deadline blown, delivery budget spent).

        With *token* given the move is fenced like :meth:`fail_item`;
        without (the claim-time budget check) the item is moved as-is.
        """
        fresh = self.read_item(item.run_id)
        if fresh is None:
            return False
        if token is not None and fresh.token != token:
            return False
        doc = fresh.to_dict()
        doc["reason"] = reason
        doc["status"] = "quarantined"
        self._terminate(fresh, self.quarantined_dir, doc)
        self._emit(
            "quarantined", item.run_id, token=token, reason=reason,
            trace=fresh.extra.get("trace"),
        )
        if token is not None:
            self.leases.release(item.run_id)
        return True

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def reclaim_stale(self) -> list[str]:
        """Requeue every item whose lease went stale; reap orphans.

        The order is the heart of the fencing protocol: the item's
        token is bumped (with redelivery backoff) *before* the stale
        lease is deleted, so the old holder is provably superseded by
        the time anyone else can claim.
        """
        reclaimed: list[str] = []
        now = self._clock()
        for run_id in self.leases.list():
            lease = self.leases.read(run_id)
            if lease is None:
                continue  # released under us
            if not self.leases.is_stale(lease, now):
                continue
            item = self.read_item(run_id)
            if item is None or self.store.has(run_id):
                # Orphan lease: the run was committed or retired but
                # the holder died before releasing.  Finish the job.
                if item is not None:
                    self._remove_item(run_id)
                self.leases.force_remove(run_id)
                continue
            bumped = replace(
                item,
                token=item.token + 1,
                not_before=now
                + backoff_delay(
                    max(1, item.deliveries),
                    base_delay_s=REDELIVERY_BASE_S,
                    max_delay_s=REDELIVERY_MAX_S,
                ),
            )
            self.write_item(bumped)
            self.leases.force_remove(run_id)
            self._emit(
                "reclaim",
                run_id,
                token=item.token,
                new_token=bumped.token,
                holder_pid=lease.pid,
                holder_host=lease.host or None,
                trace=item.extra.get("trace"),
            )
            log.warning(
                "queue %s: reclaimed run %s from %s@%s (delivery %d, "
                "token %d -> %d)",
                self.root.parent, run_id, lease.pid, lease.host or "?",
                item.deliveries, item.token, bumped.token,
            )
            reclaimed.append(run_id)
        return reclaimed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def all_leased(self) -> bool:
        """Every pending item is leased: none is left for a new claim
        (true of a drained queue too)."""
        return all(
            self.leases.path_for(p.stem).exists()
            for p in self.items_dir.glob("*.json")
            if not p.name.startswith(".")
        )

    def drained(self) -> bool:
        """No pending items remain (terminal dirs may be non-empty)."""
        return next(
            (
                True
                for p in self.items_dir.glob("*.json")
                if not p.name.startswith(".")
            ),
            None,
        ) is None

    def terminal_ids(self, kind: str) -> list[str]:
        base = {"failed": self.failed_dir,
                "quarantined": self.quarantined_dir}[kind]
        return sorted(
            p.stem for p in base.glob("*.json") if not p.name.startswith(".")
        )

    def read_terminal(self, kind: str, run_id: str) -> dict[str, object]:
        base = {"failed": self.failed_dir,
                "quarantined": self.quarantined_dir}[kind]
        with (base / f"{run_id}.json").open("r", encoding="utf-8") as fh:
            return json.load(fh)

    def status(self) -> dict[str, object]:
        """Point-in-time queue census for ``repro queue status``.

        One pass over each directory: the lease scan below is the
        *only* lease read, and the claimable count reuses it as a set
        membership test instead of re-statting ``leases/`` once per
        item (``--watch`` used to pay items × leases stats per tick).
        """
        now = self._clock()
        items = self.iter_items()
        leases = []
        leased_ids: set[str] = set()
        stale = 0
        oldest_heartbeat = 0.0
        for run_id in self.leases.list():
            lease = self.leases.read(run_id)
            if lease is None:
                continue
            leased_ids.add(run_id)
            age = lease.age(now)
            is_stale = self.leases.is_stale(lease, now)
            stale += 1 if is_stale else 0
            oldest_heartbeat = max(oldest_heartbeat, age)
            leases.append(
                {
                    "run_id": run_id,
                    "pid": lease.pid,
                    "host": lease.host,
                    "token": lease.token,
                    "heartbeat_age_s": round(age, 3),
                    "stale": is_stale,
                }
            )
        backlog = sum(1 for it in items if it.run_id not in leased_ids)
        return {
            "store": str(self.store.root),
            "pending": len(items),
            "claimable": backlog,
            "leased": len(leases),
            "failed": len(self.terminal_ids("failed")),
            "quarantined": len(self.terminal_ids("quarantined")),
            "completed": len(self.store),
            "stale": stale,
            "heartbeat_age_max_s": round(oldest_heartbeat, 3),
            "leases": leases,
        }


def has_queue(store_root: str | Path) -> bool:
    """Does *store_root* carry a work queue (any items dir)?"""
    return (Path(store_root) / QUEUE_DIR_NAME / ITEMS_DIR).is_dir()


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------

#: Defaults for ``config.json``; the join parent overrides from the
#: campaign settings so ``repro queue work`` needs no flags at all.
DEFAULT_WORKER_CONFIG: dict[str, object] = {
    "retries": 2,
    "backoff": 0.5,
    "deadline_s": 0.0,          # 0 = no per-run deadline
    "heartbeat_s": DEFAULT_HEARTBEAT_S,
    "ttl_s": DEFAULT_TTL_S,
    "max_deliveries": DEFAULT_MAX_DELIVERIES,
    "rss_budget_mb": 0.0,       # 0 = unguarded
    "disk_min_free_mb": 0.0,
    "bundle_dir": None,
    "snapshot_dir": None,
    "snapshot_every": None,
    "telemetry_dir": None,
}


def queue_config_from_settings(
    settings: Mapping[str, object], store_dir: Path
) -> dict[str, object]:
    """Translate campaign manifest settings into executor settings:
    the one reader of a campaign's execution settings.

    A queue store records the result as its ``config.json``, so bare
    ``repro queue work <store>`` workers pick up the same
    retry/deadline/guard/sidecar behaviour the join parent (or the
    HTTP service) was asked for; ``repro campaign`` builds its
    :class:`~repro.campaign.runner.CampaignRunner` from it, plus the
    runner-only ``quarantine_after``."""
    bundle_dir = Path(str(settings.get("bundle_dir") or store_dir / "bundles"))
    snapshot_dir = Path(
        str(settings.get("snapshot_dir") or store_dir / "snapshots")
    )
    telemetry_dir = (
        store_dir / "telemetry" if settings.get("telemetry") else None
    )
    return {
        "retries": int(settings.get("retries", 2) or 0),
        "backoff": float(settings.get("backoff", 0.5)),
        # The campaign's per-run timeout becomes the queue's deadline
        # budget: a run that exceeds it is quarantined, not retried.
        "deadline_s": float(settings.get("timeout", 0.0) or 0.0),
        "rss_budget_mb": float(settings.get("rss_budget_mb", 0.0) or 0.0),
        "disk_min_free_mb": float(
            settings.get("disk_min_free_mb", 0.0) or 0.0
        ),
        "bundle_dir": str(bundle_dir),
        "snapshot_dir": str(snapshot_dir),
        "snapshot_every": str(settings.get("snapshot_every") or "") or None,
        "telemetry_dir": str(telemetry_dir) if telemetry_dir else None,
    }


def build_queue_store(
    store_dir: Path,
    name: str,
    spec: Mapping[str, object] | None,
    settings: Mapping[str, object],
    runs: Sequence[RunSpec],
    *,
    config: Mapping[str, object] | None = None,
    extras: Mapping[str, Mapping[str, object]] | None = None,
    source: str | None = None,
) -> tuple[WorkQueue, int]:
    """Build a queue store, or refresh one: its ``.campaign.json``
    manifest, the queue ``config.json`` (*config*, else derived from
    *settings*), one durable item per pending run, then the ``submit``
    event.  Returns the queue and how many runs are pending.

    Every step is idempotent, so ``campaign --join``, a served
    submission of the same spec and a retry of either build the same
    bytes.  With *source* (``cli`` or ``service``) the queue's event
    sidecar is armed and every item carries the campaign's trace id:
    the content hash of its spec document, which is also the service's
    submission id, so a CLI join and a served submission of one spec
    land in one distributed trace.  Without it (the replay fan-out,
    whose items carry *extras* instead) no event is written.
    """
    ResultStore(store_dir).write_manifest(name, spec, settings)
    queue = WorkQueue(store_dir)
    queue.write_config(
        config if config is not None
        else queue_config_from_settings(settings, store_dir)
    )
    if source is None:
        return queue, queue.enqueue(runs, extras=extras)
    trace = run_id_of({"kind": "campaign", "spec": spec})
    queue.arm_events()
    pending = queue.enqueue(
        runs, extras={run.run_id: {"trace": trace} for run in runs}
    )
    queue.events.emit("submit", trace=trace, runs=len(runs), source=source)
    queue.close_events()
    return queue, pending


@dataclass
class WorkerOutcome:
    """What one :meth:`QueueWorker.drain` call did."""

    status: str = "drained"  # drained | suspended | shed
    completed: int = 0
    failed: int = 0
    quarantined: int = 0
    requeued: int = 0
    fenced: int = 0

    @property
    def exit_code(self) -> int:
        return 0 if self.status == "drained" else 4


class QueueWorker:
    """One drain process: claim → execute → commit, forever.

    Runs items strictly one at a time (parallelism comes from running
    more workers), heartbeats its single active lease from a daemon
    thread, and reacts to the degradation ladder documented in the
    module docstring.  ``drain()`` returns when the queue is empty,
    when a SIGTERM asks for a clean drain, or when an RSS trip
    recycles the process.  A worker with *siblings* (one of several
    workers a supervisor hands the store to) also returns, drained,
    once every item left is leased: it would only wait for a sibling,
    and the supervisor hands the store back if an item becomes
    claimable again.
    """

    IDLE_SLEEP_S = 0.2

    def __init__(
        self,
        store_root: str | Path,
        *,
        config: Mapping[str, object] | None = None,
        entry: Callable | None = None,
        install_signal_handlers: bool = False,
        note: Callable[[str], None] | None = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        siblings: bool = False,
    ) -> None:
        probe = WorkQueue(store_root)  # ensures layout, reads config
        merged = dict(DEFAULT_WORKER_CONFIG)
        merged.update(probe.read_config())
        merged.update(config or {})
        self.config = merged
        self.queue = WorkQueue(
            store_root,
            ttl_s=float(merged["ttl_s"]),
            max_deliveries=int(merged["max_deliveries"]),
            clock=clock,
        )
        self.store = self.queue.store
        # Fleet event sidecars under .queue/metrics/ (the observability
        # plane): outside the store fingerprint, so they cost a few
        # fsync'd appends per run and change no result.
        self.queue.arm_events()
        self.install_signal_handlers = install_signal_handlers
        self._note = note or (lambda message: None)
        self._clock = clock
        self._sleep = sleep
        self._siblings = siblings
        self.entry = entry or self._build_entry()
        self._keeper = HeartbeatKeeper(
            self.queue.leases,
            interval_s=float(merged["heartbeat_s"]),
            on_lost=self._on_lease_lost,
        )
        # Per-run degradation flags, set by monitor/heartbeat threads.
        self._fenced = False
        self._shed = False
        self._deadline_hit = False

    def _build_entry(self) -> Callable:
        from repro.slurm.entry import _default_entry

        cfg = self.config
        return _default_entry(
            Path(cfg["bundle_dir"]) if cfg.get("bundle_dir") else None,
            Path(cfg["snapshot_dir"]) if cfg.get("snapshot_dir") else None,
            cfg.get("snapshot_every"),  # type: ignore[arg-type]
            Path(cfg["telemetry_dir"]) if cfg.get("telemetry_dir") else None,
        )

    # ------------------------------------------------------------------
    def _on_lease_lost(self, run_id: str) -> None:
        """Heartbeat callback: our claim was reclaimed.  Fence the
        in-flight execution — ask it to stop at the next event
        boundary and mark the result for discard."""
        self._fenced = True
        _suspend.request_suspend()

    # ------------------------------------------------------------------
    def drain(self) -> WorkerOutcome:
        outcome = WorkerOutcome()
        previous = (
            _suspend.install_signal_handlers()
            if self.install_signal_handlers
            else None
        )
        lock = StoreLock(self.store.root, shared=True)
        lock.acquire()
        self._keeper.start()
        try:
            self._drain_loop(outcome)
        finally:
            self._keeper.stop()
            lock.release()
            # A warm worker keeps no handle into a store it is done
            # with.
            self.queue.close_events()
            if previous is not None:
                _suspend.restore_signal_handlers(previous)
        return outcome

    def _drain_loop(self, outcome: WorkerOutcome) -> None:
        disk_limit = float(self.config["disk_min_free_mb"] or 0.0)
        while True:
            if _suspend.suspend_requested():
                # SIGTERM between runs: nothing leased, just leave.
                _suspend.reset()
                outcome.status = "suspended"
                self._note("suspend requested; draining cleanly")
                return
            self.queue.reclaim_stale()
            if disk_limit > 0:
                free = disk_free_mb(self.store.root)
                if free < disk_limit:
                    if self.queue.drained():
                        return
                    self._note(
                        f"paused: {free:.0f} MB free under the "
                        f"{disk_limit:.0f} MB watermark"
                    )
                    self._sleep(2.0)
                    continue
            claimed = self.queue.claim_next()
            if claimed is None:
                if self.queue.drained() or (
                    self._siblings and self.queue.all_leased()
                ):
                    return
                self._sleep(self.IDLE_SLEEP_S)
                continue
            item, token = claimed
            self._execute_claimed(item, token, outcome)
            if outcome.status in ("suspended", "shed"):
                return

    # ------------------------------------------------------------------
    def _execute_claimed(
        self, item: QueueItem, token: int, outcome: WorkerOutcome
    ) -> None:
        self._fenced = False
        self._shed = False
        self._deadline_hit = False
        try:
            # First heartbeat immediately at claim time: short runs
            # finish inside the keeper's interval and would otherwise
            # never exercise the renew path (or its failpoint).
            self.queue.leases.renew(item.run_id)
        except LeaseLost:
            self._fenced = True
            outcome.fenced += 1
            self.queue._emit("fenced", item.run_id, token=token)
            return
        self.queue._emit("renew", item.run_id, token=token)
        self._keeper.watch(item.run_id)
        stop = threading.Event()
        monitor = threading.Thread(
            target=self._monitor_run,
            args=(stop,),
            name="queue-run-monitor",
            daemon=True,
        )
        monitor.start()
        retries = int(self.config["retries"])
        backoff = float(self.config["backoff"])
        attempt = 0
        self._note(
            f"run {item.run_id} claimed (token {token}, "
            f"delivery {item.deliveries})"
        )
        failure: BaseException | None = None
        try:
            while True:
                attempt += 1
                try:
                    payload = self._execute_item(item)
                except (SuspendRequested, KeyboardInterrupt) as exc:
                    failure = exc
                except Exception as exc:
                    if attempt <= retries:
                        self._note(
                            f"run {item.run_id} attempt {attempt} failed "
                            f"({type(exc).__name__}: {exc}); retrying"
                        )
                        self._sleep(backoff * (2.0 ** (attempt - 1)))
                        continue
                    failure = exc
                break
        finally:
            # Every branch below releases the lease, so the heartbeat
            # stops first: a beat landing after the release would read
            # the lease as lost and ask this worker to suspend.
            stop.set()
            self._keeper.unwatch(item.run_id)
        if failure is None:
            self._commit(item, token, payload, attempt, outcome)
        elif isinstance(failure, SuspendRequested):
            self._handle_suspend(item, token, failure, outcome)
        elif isinstance(failure, KeyboardInterrupt):
            self.queue.requeue(
                item, token, penalty=False, reason="interrupted"
            )
            outcome.requeued += 1
            outcome.status = "suspended"
        else:
            error = f"{type(failure).__name__}: {failure}"
            if self.queue.fail_item(item, token, error):
                outcome.failed += 1
                self._note(f"run {item.run_id} FAILED: {error}")
            else:
                outcome.fenced += 1

    def _commit(
        self,
        item: QueueItem,
        token: int,
        payload: dict[str, object],
        attempts: int,
        outcome: WorkerOutcome,
    ) -> None:
        if not self.queue.fence_ok(item.run_id, token):
            # Superseded: a reclaim handed this run to someone else
            # while we were computing.  The result is discarded, not
            # merged — the successor's (deterministic, identical)
            # result is the one that counts.
            outcome.fenced += 1
            self.queue._emit(
                "fenced", item.run_id, token=token,
                trace=item.extra.get("trace"),
            )
            self._note(f"run {item.run_id} fenced (token {token} stale)")
            return
        self.store.save(item.run_id, result_record(item, payload, attempts))
        self.queue.complete(item.run_id, token)
        outcome.completed += 1
        self._note(f"run {item.run_id} done")

    def _handle_suspend(
        self,
        item: QueueItem,
        token: int,
        exc: SuspendRequested,
        outcome: WorkerOutcome,
    ) -> None:
        snapshot = exc.snapshot_path
        if self._fenced:
            # Reclaimed mid-run: the queue already rerouted the item;
            # drop the claim state and keep draining.
            _suspend.reset()
            outcome.fenced += 1
            self.queue._emit(
                "fenced", item.run_id, token=token,
                trace=item.extra.get("trace"),
            )
            self._note(f"run {item.run_id} fenced mid-run; discarded")
            return
        if self._deadline_hit:
            _suspend.reset()
            deadline = float(self.config["deadline_s"])
            if self.queue.quarantine_item(
                item,
                token=token,
                reason=(
                    f"run exceeded its {deadline:.0f}s deadline budget "
                    f"on delivery {item.deliveries}"
                ),
            ):
                outcome.quarantined += 1
                self._note(f"run {item.run_id} quarantined (deadline)")
            else:
                outcome.fenced += 1
            return
        if self._shed:
            _suspend.reset()
            self.queue.requeue(
                item, token, penalty=False, snapshot=snapshot,
                reason="rss-shed",
            )
            outcome.requeued += 1
            outcome.status = "shed"
            self._note(
                f"run {item.run_id} shed (RSS over budget); recycling "
                f"worker"
            )
            return
        # External SIGTERM/SIGINT: clean drain — park the run (with
        # its snapshot) and exit suspended.
        self.queue.requeue(
            item, token, penalty=False, snapshot=snapshot, reason="sigterm"
        )
        outcome.requeued += 1
        outcome.status = "suspended"
        self._note(f"run {item.run_id} requeued (suspend); draining")

    # ------------------------------------------------------------------
    def _monitor_run(self, stop: threading.Event) -> None:
        """Per-run watchdog thread: deadline budget + RSS self-probe."""
        deadline_s = float(self.config["deadline_s"] or 0.0)
        rss_budget = float(self.config["rss_budget_mb"] or 0.0)
        if deadline_s <= 0 and rss_budget <= 0:
            return
        started = self._clock()
        while not stop.wait(0.2):
            if deadline_s > 0 and self._clock() - started >= deadline_s:
                self._deadline_hit = True
                _suspend.request_suspend()
                return
            if rss_budget > 0:
                rss = rss_mb_of(os.getpid())
                if rss is not None and rss > rss_budget:
                    self._shed = True
                    _suspend.request_suspend()
                    return

    # ------------------------------------------------------------------
    def _execute_item(self, item: QueueItem) -> dict[str, object]:
        # Install the submission's trace id as ambient context so the
        # entry point's telemetry sidecar and decision trace can tag
        # themselves without widening any signature.
        from repro.observability.events import set_current_trace

        previous = set_current_trace(item.extra.get("trace"))
        try:
            if item.params.get("kind") == "replay_chain":
                return self._execute_replay_chain(item)
            return self.entry(item.params)
        finally:
            set_current_trace(previous)

    def _execute_replay_chain(self, item: QueueItem) -> dict[str, object]:
        """One whole per-strategy replay window chain as a queue item.

        The chain executes serially inside this worker (window order
        is a correctness requirement), into its own sub-store, while
        the queue runs different strategies' chains in parallel.  A
        suspension between windows propagates as
        :class:`SuspendRequested` so the degradation ladder requeues
        the chain.  The windows commit to the sub-store once per
        snapshot group, and a suspension first commits the windows
        already run, so each keeps its columnar ``windows`` mark and a
        redelivery resumes at the first window without one.
        """
        from repro.archive.replay import replay_archive

        archive_dir = item.extra.get("archive_dir")
        store_dir = item.extra.get("store_dir")
        if not archive_dir or not store_dir:
            raise ConfigError(
                f"replay_chain item {item.run_id} lacks archive_dir/"
                f"store_dir extras"
            )
        params = item.params
        outcome = replay_archive(
            str(archive_dir),
            str(store_dir),
            strategy=str(params["strategy"]),
            num_nodes=int(params["num_nodes"]),  # type: ignore[arg-type]
            config=params.get("config"),  # type: ignore[arg-type]
            telemetry_dir=(
                str(self.config["telemetry_dir"])
                if self.config.get("telemetry_dir")
                else None
            ),
        )
        campaign = outcome.campaign
        if campaign.interrupted or campaign.suspended:
            raise SuspendRequested(
                f"replay chain {outcome.chain} suspended mid-drain"
            )
        if not campaign.ok:
            problems = [f.error for f in campaign.failures]
            problems += [q.incidents for q in campaign.quarantined]
            raise CampaignError(
                f"replay chain {outcome.chain} failed: {problems!r}"
            )
        stitched = dict(outcome.stitched or {})
        return {
            "kind": "replay_chain",
            "chain": outcome.chain,
            "strategy": str(params["strategy"]),
            "num_nodes": int(params["num_nodes"]),  # type: ignore[arg-type]
            "windows": int(params["windows"]),  # type: ignore[arg-type]
            "stitched": stitched,
        }


# ----------------------------------------------------------------------
# Join supervisor: a worker fleet draining one store
# ----------------------------------------------------------------------


@dataclass
class JoinOutcome:
    """Result of :func:`drain_with_workers`."""

    status: str  # drained | suspended | stalled
    workers: int
    respawns: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "drained"


def drain_with_workers(
    store_root: str | Path,
    workers: int,
    *,
    note: Callable[[str], None] | None = None,
    poll_s: float = 0.2,
) -> JoinOutcome:
    """Hand the store to up to *workers* warm drain workers
    (:class:`~repro.campaign.warm.WarmFleet`) and supervise them until
    its queue is drained, then close their stdin.

    The parent is the reclaim supervisor of last resort (a hard-killed
    worker's leases come back even if every sibling died too), and the
    respawn authority: a worker whose drain ends with the queue still
    holding work (injected kill, RSS recycle, real crash) is replaced
    while the respawn budget lasts.  A worker that finds every item
    left leased by a sibling answers at once and waits idle; the
    parent hands the store back to it, with no respawn counted, when
    an item is left unleased (a reclaim, say).  On a suspend request
    the fleet is SIGTERMed, given :data:`SUSPEND_GRACE_S` to park
    leases, then SIGKILLed.
    """
    from repro.campaign.warm import WarmFleet

    store_root = Path(store_root)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    queue = WorkQueue(store_root)
    # The parent reclaims with the lease TTL its workers use.
    queue.leases.ttl_s = float(
        queue.read_config().get("ttl_s", DEFAULT_WORKER_CONFIG["ttl_s"])
    )
    # The parent's reclaim pass is an observability actor too: its
    # supersession events are what the trace stitcher marks zombie
    # tenures with.
    queue.arm_events()
    say = note or (lambda message: None)
    budget = RESPAWN_BUDGET_PER_WORKER * workers + 8
    outcome = JoinOutcome(status="drained", workers=workers)
    index: dict = {}  # worker -> spawn order, which names its log

    def _report(proc, store, status: str) -> None:
        if status == "exited" and proc.returncode not in (0, 4):
            say(f"worker {index[proc]} exited {proc.returncode}")

    fleet = WarmFleet(_report, siblings=True)

    def _launch() -> None:
        proc = fleet.spawn(queue.logs_dir / f"worker-{len(index):03d}.log")
        index[proc] = len(index)
        fleet.hand_off(proc, store_root, str(store_root))

    say(f"joined store {store_root} with {workers} workers")
    try:
        while True:
            if _suspend.suspend_requested():
                _suspend.reset()
                outcome.status = "suspended"
                say("suspend requested; draining the worker fleet")
                return outcome
            queue.reclaim_stale()
            if queue.drained():
                # An idle worker exits 0 at stdin EOF, a busy one once
                # it has seen the queue empty too.
                fleet.stop(SUSPEND_GRACE_S, terminate=False)
                return outcome
            if not fleet.held and outcome.respawns >= budget:
                outcome.status = "stalled"
                say(
                    f"respawn budget ({budget}) exhausted with work "
                    f"pending; giving up"
                )
                return outcome
            # Keep the fleet at strength while work remains; every
            # worker after the first *workers* is a respawn.
            while len(fleet.held) < workers and outcome.respawns < budget:
                if len(index) >= workers:
                    outcome.respawns += 1
                _launch()
            idle = [proc for proc, held in fleet.held.items() if held is None]
            if idle and not queue.all_leased():
                for proc in idle:
                    fleet.hand_off(proc, store_root, str(store_root))
            fleet.wait(poll_s)
    finally:
        fleet.stop(SUSPEND_GRACE_S)
        queue.close_events()
