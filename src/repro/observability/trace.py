"""Decision tracing: structured records of every scheduler decision.

Every scheduler cycle, backfill pass, co-allocation attempt, job
lifecycle transition, admission denial and failure/repair event emits
one structured record through :class:`DecisionTrace`.  Rejections are
*reason-coded*: each failed placement or admission carries exactly one
code from :data:`REASON_CODES`, so "why didn't my job share a node?"
is answerable from the trace instead of from a debugger.

Buffering is bounded on both axes: in memory, a ring of the most
recent ``ring`` records (older records drop but remain counted); on
disk (when ``path`` is set), records append as JSONL in
``flush_every`` batches with size-based rotation, so a long campaign
cannot fill the disk with one unbounded trace file.

Rejections are additionally *streak-suppressed*: a pending job that
fails the same probe with the same code pass after pass emits one
record when the streak starts, not one per pass (the hub's
``reject.*`` counters count records, not attempts, and ``suppressed``
tallies the elided repeats).  Any accept or lifecycle transition for
the job resets its streaks, so the stream records every *change* of
decision.  Armed runs take the disarmed scheduler path, so a probe
the pass's size tests rule out records nothing (DESIGN.md §7).

Every trace owns its :class:`~repro.observability.hub.TelemetryHub`:
the typed emit helpers bump its counters, so metrics and records
cannot drift apart, and arming the trace arms the hub with it.

The trace pickles inside snapshots — the ring, hub, counters and
sequence numbers travel with the manager, so a suspended/resumed run
carries its full decision history.  Only the line buffer is flushed
first; no file handle is held between flushes.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

from repro.errors import ConfigError
from repro.observability.hub import TelemetryHub

#: Every reason code a rejection record may carry, with its meaning.
#: This table is the single authority (documented in DESIGN.md §7);
#: emitting an unknown code is a programming error and raises.
REASON_CODES: dict[str, str] = {
    # -- placement rejections (per scheduler pass, per helper probe) --
    "not_shareable": (
        "the job does not permit node sharing, so a shared placement "
        "was never an option"
    ),
    "no_resident_groups": (
        "no running shared job currently exposes free SMT lanes to join"
    ),
    "interference_cap": (
        "resident groups exist, but every pairing fails the "
        "compatibility policy (combined throughput below the share "
        "threshold, or one side dilated beyond the walltime grace)"
    ),
    "memory": (
        "a compatible resident exists, but the joiner's and resident's "
        "per-node working sets exceed the node's memory"
    ),
    "no_exact_cover": (
        "compatible, memory-fitting groups exist but no subset of them "
        "sums exactly to the job's node request (full-overlap rule)"
    ),
    "insufficient_idle": (
        "fewer idle nodes than the job requests"
    ),
    "reservation_collision": (
        "enough idle nodes exist, but starting now would eat into the "
        "backfill window reserved for the blocked queue head"
    ),
    "open_shared_disabled": (
        "opening idle nodes in shared mode is disabled by configuration "
        "(allow_open_shared=False)"
    ),
    "deferred_reservation": (
        "the availability profile cannot start the job this pass; it "
        "holds a reservation for a future start instead (conservative "
        "backfill only)"
    ),
    # -- admission rejections (at submission) -------------------------
    "unknown_partition": "the job names a partition that does not exist",
    "partition_limit": (
        "the partition's size or walltime limits reject the request"
    ),
    "node_memory": (
        "the requested memory per node exceeds every node's capacity"
    ),
    "avoid_nodes": (
        "after drains removed suspect nodes from service, fewer nodes "
        "remain than the job needs"
    ),
}


class DecisionTrace:
    """Bounded, optionally file-backed stream of decision records.

    Parameters
    ----------
    path:
        JSONL output file; ``None`` keeps records in memory only.
    ring:
        In-memory records retained (drop-oldest beyond this).  The
        default holds every record of an evaluation-sized run and
        bounds a runaway one.
    flush_every:
        Records buffered between JSONL appends.
    rotate_bytes:
        Rotate the JSONL file once it exceeds this size.
    keep:
        Rotated generations retained (``<path>.1`` ... ``<path>.keep``).

    The manager always takes the defaults of *ring*, *flush_every*,
    *rotate_bytes* and *keep*; they are parameters so tests can force
    drops and rotation.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        ring: int = 65_536,
        flush_every: int = 256,
        rotate_bytes: int = 64 * 1024 * 1024,
        keep: int = 2,
    ) -> None:
        if ring < 1:
            raise ConfigError(f"ring must be >= 1, got {ring}")
        self.path = Path(path) if path is not None else None
        self.flush_every = int(flush_every)
        self.rotate_bytes = int(rotate_bytes)
        self.keep = int(keep)
        #: The run's metrics registry; the manager writes its job
        #: histograms, pass gauges and ``sim.*`` figures here too.
        self.hub = TelemetryHub()
        self._ring = int(ring)
        self.records: deque[dict] = deque(maxlen=self._ring)
        #: Records emitted so far, retained or not: also the ``seq``
        #: of the latest record.
        self.emitted = 0
        self.suppressed = 0
        self.write_failures = 0
        self._buffer: list[str] = []
        #: job id -> {stage: last rejection code} for streak suppression.
        self.streaks: dict[int, dict[str, str]] = {}

    # ------------------------------------------------------------------
    # Core emission
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> dict:
        """Ring/file bookkeeping shared by every record constructor.

        The typed helpers build their record dicts in a single literal
        and call this directly — one allocation per record, no
        keyword-argument re-packing hop through :meth:`emit`.
        """
        self.records.append(record)
        if self.path is not None:
            # Insertion order is deterministic (seq/t/type, then the
            # caller's fields), so no sort_keys on this hot path.
            self._buffer.append(json.dumps(record))
            if len(self._buffer) >= self.flush_every:
                self.flush()
        return record

    @property
    def dropped(self) -> int:
        """Emitted records the ring no longer holds."""
        return self.emitted - len(self.records)

    def emit(self, record_type: str, t: float, **fields: object) -> dict:
        """Append one record; returns it (mostly for tests)."""
        self.emitted += 1
        return self._append(
            {"seq": self.emitted, "t": float(t), "type": record_type, **fields}
        )

    # ------------------------------------------------------------------
    # Typed helpers — the manager and placement layer call these
    # ------------------------------------------------------------------
    def reject(
        self, t: float, stage: str, job_id: int, code: str, **fields: object
    ) -> dict | None:
        """One coded rejection record (placement probe or admission).

        Streak-suppressed: re-failing the same *stage* with the same
        *code* as the job's previous probe bumps ``suppressed`` and
        records nothing (returns None) — the stream and the hub's
        ``reject.*`` counters log decision changes, not per-pass
        repetition.  On a contended queue the suppressed path runs
        tens of thousands of times per run, so it stays minimal: two
        dict probes and an increment — and the hottest call sites
        (``core/placement.py``) consult ``streaks`` inline to skip
        even the call when the repeat would be suppressed.
        """
        stages = self.streaks.get(job_id)
        if stages is not None and stages.get(stage) == code:
            # A streak can only hold a previously-validated code.
            self.suppressed += 1
            return None
        if code not in REASON_CODES:
            raise ConfigError(
                f"unknown rejection reason code {code!r}; "
                f"known: {sorted(REASON_CODES)}"
            )
        if stages is None:
            stages = self.streaks[job_id] = {}
        stages[stage] = code
        self.hub.inc(f"reject.{stage}.{code}")
        self.emitted += 1
        return self._append({
            "seq": self.emitted, "t": float(t), "type": "reject",
            "stage": stage, "job": job_id, "code": code, **fields,
        })

    def accept(
        self, t: float, stage: str, job_id: int, kind: str, nodes: int,
        **fields: object,
    ) -> dict:
        """A placement probe succeeded (the job starts this pass)."""
        self.hub.inc(f"accept.{stage}.{kind}")
        self.streaks.pop(job_id, None)
        self.emitted += 1
        return self._append({
            "seq": self.emitted, "t": float(t), "type": "accept",
            "stage": stage, "job": job_id, "kind": kind, "nodes": nodes,
            **fields,
        })

    def lifecycle(self, t: float, job_id: int, state: str, **fields: object) -> dict:
        """A job lifecycle transition (submit/start/end/requeue).

        Any transition changes the job's circumstances, so its
        rejection streaks reset — the next identical rejection is a
        fresh decision and records again.
        """
        self.hub.inc(f"jobs.{state}")
        self.streaks.pop(job_id, None)
        self.emitted += 1
        return self._append({
            "seq": self.emitted, "t": float(t), "type": "lifecycle",
            "job": job_id, "state": state, **fields,
        })

    def span(
        self, t: float, name: str, **fields: object
    ) -> dict:
        """A scheduler-cycle span summary (one per pass)."""
        self.hub.inc(f"span.{name}")
        self.emitted += 1
        return self._append({
            "seq": self.emitted, "t": float(t), "type": "span",
            "name": name, **fields,
        })

    def event(self, t: float, name: str, **fields: object) -> dict:
        """A point event (failure, repair, reservation edge, snapshot)."""
        self.hub.inc(f"event.{name}")
        self.emitted += 1
        return self._append({
            "seq": self.emitted, "t": float(t), "type": "event",
            "name": name, **fields,
        })

    # ------------------------------------------------------------------
    # File output
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Append buffered records to the JSONL file (best-effort:
        a full disk must never take the simulation down with it)."""
        if self.path is None or not self._buffer:
            return
        lines, self._buffer = self._buffer, []
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._maybe_rotate()
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        except OSError:
            self.write_failures += 1

    def _maybe_rotate(self) -> None:
        """Size-based rotation: ``p`` -> ``p.1`` -> ... -> ``p.keep``."""
        try:
            size = self.path.stat().st_size  # type: ignore[union-attr]
        except OSError:
            return
        if size < self.rotate_bytes:
            return
        oldest = self.path.with_name(f"{self.path.name}.{self.keep}")  # type: ignore[union-attr]
        oldest.unlink(missing_ok=True)
        for index in range(self.keep - 1, 0, -1):
            source = self.path.with_name(f"{self.path.name}.{index}")  # type: ignore[union-attr]
            if source.exists():
                source.rename(self.path.with_name(f"{self.path.name}.{index + 1}"))  # type: ignore[union-attr]
        self.path.rename(self.path.with_name(f"{self.path.name}.1"))  # type: ignore[union-attr]

    def close(self) -> None:
        self.flush()

    # ------------------------------------------------------------------
    # Pickling — flush first; no handle is held between flushes, so
    # the default state is already snapshot-safe.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        self.flush()
        return self.__dict__.copy()

    def summary(self) -> dict[str, object]:
        """Compact JSON-ready account of this trace's volume."""
        return {
            "emitted": self.emitted,
            "retained": len(self.records),
            "dropped": self.dropped,
            "suppressed": self.suppressed,
            "write_failures": self.write_failures,
            "path": str(self.path) if self.path is not None else None,
        }
