"""Durable, idempotent submission registry behind ``repro serve``.

A *submission* is a campaign spec accepted over HTTP.  Its identity is
content-derived — :func:`submission_id_of` hashes the canonical spec
document the same way run ids hash run params — so submitting the
same spec twice (a client retry, a duplicate client, a server restart
replaying a request) converges on the same per-submission store under
``<root>/stores/<submission_id>/`` instead of forking state.

Accepting a submission writes exactly what ``repro campaign --join``
writes: the hidden ``.campaign.json`` manifest (with the CLI's
default settings, so the drained store is *byte-identical* to a
CLI-produced one — the chaos harness holds the service to this), the
queue ``config.json``, and one durable queue item per run.  All of it
is idempotent, which is what makes the commit protocol crash-safe:

1. store manifest + queue config + queue items, through
   :func:`~repro.campaign.queue.build_queue_store`, the function
   ``campaign --join`` builds its store with (all idempotent),
2. the submission record ``submissions/<id>.json``
   (:func:`~repro.storage.durable.create_exclusive`, guarded by the
   ``service.submit.write`` failpoint),
3. the idempotency-key record, also through ``create_exclusive``
   (the commit point, guarded by the ``service.key.write``
   failpoint).

A crash between any two steps leaves a prefix that the client's retry
simply re-executes.  Once the record exists, a duplicate of the spec
(no key, or a new one) skips step 1 and only binds its key.  Because
the key record becomes visible only via the atomic link of fully
durable bytes, it can only ever bind a key to a fully recorded
submission — a crash mid-key-write leaves at worst an invisible
tempfile, never a torn record.  Two different specs racing one key
lose deterministically: whoever lands the link wins (``EEXIST`` is
the loser), the other gets :class:`IdempotencyConflict` (HTTP 409).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

from repro.campaign.queue import WorkQueue, build_queue_store, has_queue
from repro.campaign.spec import CampaignSpec, run_id_of
from repro.campaign.store import ResultStore
from repro.errors import ConfigError
from repro.storage.durable import create_exclusive, write_atomic

#: Name of the service's own manifest at the service root.
SERVICE_MANIFEST = "service.json"


class IdempotencyConflict(ConfigError):
    """One idempotency key, two different submission bodies."""


def default_submission_settings() -> dict[str, object]:
    """The manifest settings a default ``repro campaign --join`` records.

    Byte-identity with CLI-produced stores depends on this staying in
    lockstep with the ``campaign`` parser defaults (the service test
    suite cross-checks it against ``cli._campaign_settings_from_args``).
    """
    return {
        "timeout": 0.0,
        "retries": 2,
        "backoff": 0.5,
        "quarantine_after": 2,
        "bundle_dir": "",
        "snapshot_dir": "",
        "snapshot_every": "60",
        "rss_budget_mb": 0.0,
        "disk_min_free_mb": 0.0,
        "telemetry": False,
        "queue": True,
    }


def submission_id_of(spec_dict: Mapping[str, object]) -> str:
    """Content-derived submission identity (16 hex chars)."""
    return run_id_of({"kind": "campaign", "spec": dict(spec_dict)})


def _key_filename(key: str) -> str:
    """Stable, filesystem-safe name for an arbitrary client key."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:32] + ".json"


def write_service_manifest(
    root: str | Path, doc: Mapping[str, object]
) -> Path:
    """Atomically record the running server's coordinates
    (``service.json``: host, port, pid, status) at the service root."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / SERVICE_MANIFEST
    data = json.dumps(dict(doc), sort_keys=True, indent=1).encode("utf-8")
    return write_atomic(path, data, write_fp="service.manifest.write")


def read_service_manifest(root: str | Path) -> dict[str, object] | None:
    try:
        doc = json.loads(
            (Path(root) / SERVICE_MANIFEST).read_text(encoding="utf-8")
        )
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


class SubmissionRegistry:
    """Filesystem-backed registry of accepted submissions.

    Layout under *root*::

        service.json            server coordinates (who serves this root)
        submissions/<id>.json   one record per accepted submission
        idempotency/<h>.json    client key -> submission id bindings
        stores/<id>/            the per-submission campaign store
                                (manifest, .queue/, result records)

    Everything is plain sync I/O: the registry is shared by the async
    server (which calls it from executor threads), the chaos drive
    pipeline, and tests.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.submissions = self.root / "submissions"
        self.idempotency = self.root / "idempotency"
        self.stores = self.root / "stores"
        for directory in (self.submissions, self.idempotency, self.stores):
            directory.mkdir(parents=True, exist_ok=True)

    # -- submission ----------------------------------------------------
    def submit(
        self,
        spec_data: Mapping[str, object],
        idempotency_key: str | None = None,
    ) -> tuple[dict[str, object], bool, bool]:
        """Accept a campaign spec; returns ``(record, created, replayed)``.

        Raises :class:`~repro.errors.ConfigError` on an invalid spec
        and :class:`IdempotencyConflict` when *idempotency_key* is
        already bound to a different spec.
        """
        if not isinstance(spec_data, Mapping):
            raise ConfigError("campaign spec must be a JSON object")
        spec = CampaignSpec.from_dict(spec_data)
        spec_dict = spec.to_dict()
        sub_id = submission_id_of(spec_dict)

        bound = self._read_key(idempotency_key)
        if bound is not None:
            if bound != sub_id:
                raise IdempotencyConflict(
                    f"idempotency key {idempotency_key!r} is already bound "
                    f"to submission {bound}; this body hashes to {sub_id}"
                )
            record = self.get(sub_id)
            if record is not None:
                # The replay still leaves a mark on the timeline: the
                # stitcher renders it as an instant joining the
                # original submission span (same content-derived
                # trace id), evidence the dedup fired.
                self._emit_submit(
                    sub_id, int(record.get("runs", 0)), replayed=True
                )
                return record, False, True
            # Key landed but the record is gone (manual tampering or a
            # pre-commit-order store): fall through and rebuild — every
            # step below is idempotent.

        runs = spec.expand()
        record = {
            "submission": sub_id,
            "name": spec.name,
            "spec": spec_dict,
            "store": f"stores/{sub_id}",
            "runs": len(runs),
        }
        if self.get(sub_id) == record:
            # A duplicate without this key: the record is written
            # last, so the store behind it is complete.
            self._emit_submit(sub_id, len(runs))
            if idempotency_key is not None:
                self._bind_key(idempotency_key, sub_id)
            return record, False, False

        # The submission id *is* the trace id: both are the content
        # hash of the spec, so an idempotent replay — or the same
        # campaign joined from the CLI — lands in the same trace.
        build_queue_store(
            self.stores / sub_id, spec.name, spec_dict,
            default_submission_settings(), runs, source="service",
        )
        created = self._write_record(sub_id, record)
        if idempotency_key is not None:
            self._bind_key(idempotency_key, sub_id)
        return record, created, False

    def _emit_submit(
        self, sub_id: str, runs: int, replayed: bool = False
    ) -> None:
        """Record a submission event on an already-built store; an
        idempotent replay is flagged as one."""
        store_dir = self.stores / sub_id
        if not store_dir.is_dir():
            return
        queue = WorkQueue(store_dir)
        queue.arm_events()
        queue.events.emit(
            "submit", trace=sub_id, runs=runs, source="service",
            replayed=replayed or None,
        )
        queue.close_events()

    # -- idempotency keys ----------------------------------------------
    def _key_path(self, key: str) -> Path:
        return self.idempotency / _key_filename(key)

    def _read_key(self, key: str | None) -> str | None:
        if key is None:
            return None
        try:
            raw = self._key_path(key).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise ConfigError(
                f"idempotency record for key {key!r} is unreadable: {exc}"
            ) from exc
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError:
            # An empty or torn record (a crash between create and
            # write in a pre-atomic-commit store): treat it as absent
            # so the retry rebuilds the submission and rebinds,
            # instead of poisoning the key with a permanent 400.
            return None
        if not isinstance(doc, dict):
            return None
        return str(doc.get("submission", "")) or None

    def _bind_key(self, key: str, sub_id: str) -> None:
        """Commit point: ``create_exclusive`` makes the binding visible
        only complete, and the loser of a race (the record it then
        reads is always complete) gets False."""
        path = self._key_path(key)
        data = json.dumps(
            {"key": key, "submission": sub_id}, sort_keys=True
        ).encode("utf-8")
        for _ in range(8):
            if create_exclusive(path, data, write_fp="service.key.write"):
                return
            bound = self._read_key(key)
            if bound == sub_id:
                return
            if bound is not None:
                raise IdempotencyConflict(
                    f"idempotency key {key!r} was bound to "
                    f"submission {bound} by a concurrent request"
                )
            # A record exists but reads as absent: a torn leftover
            # from a pre-atomic-commit crash.  Clear it and retry the
            # create; racing healers converge because every created
            # record is complete.
            path.unlink(missing_ok=True)
        raise ConfigError(
            f"idempotency key {key!r} could not be bound: its "
            f"record keeps reappearing unreadable"
        )

    # -- records -------------------------------------------------------
    def _record_path(self, sub_id: str) -> Path:
        return self.submissions / f"{sub_id}.json"

    def _write_record(self, sub_id: str, record: dict[str, object]) -> bool:
        """Atomically write the submission record; True when this call
        created it (its link landed first).  Deriving the 201-vs-200
        answer from the write itself means concurrent duplicates of
        one spec cannot both report 201."""
        data = json.dumps(record, sort_keys=True, indent=1).encode("utf-8")
        path = self._record_path(sub_id)
        if create_exclusive(path, data, write_fp="service.submit.write"):
            return True
        # Same sub_id -> same bytes, so the refresh is needed only
        # when the record on disk was damaged or tampered with.
        try:
            current = path.read_bytes()
        except OSError:
            current = None
        if current != data:
            write_atomic(path, data, write_fp="service.submit.write")
        return False

    def get(self, sub_id: str) -> dict[str, object] | None:
        try:
            doc = json.loads(
                self._record_path(sub_id).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            return None
        return doc if isinstance(doc, dict) else None

    def list_ids(self) -> list[str]:
        return sorted(
            path.stem
            for path in self.submissions.glob("*.json")
            if not path.name.startswith(".")
        )

    # -- status and results --------------------------------------------
    def store_dir(self, sub_id: str) -> Path:
        return self.stores / sub_id

    def status(self, sub_id: str) -> dict[str, object] | None:
        """Submission progress from the queue's own census.

        This is the same :meth:`WorkQueue.status` codepath behind
        ``repro queue status`` — operators and ``/readyz`` read one
        source of truth.
        """
        record = self.get(sub_id)
        if record is None:
            return None
        store_dir = self.store_dir(sub_id)
        total = int(record.get("runs", 0))
        out: dict[str, object] = {
            "submission": sub_id,
            "name": record.get("name", ""),
            "runs": total,
        }
        if not has_queue(store_dir):
            out.update({"state": "accepted", "done": 0})
            return out
        census = WorkQueue(store_dir).status()
        done = int(census["completed"])
        terminal = (
            done + int(census["failed"]) + int(census["quarantined"])
        )
        out.update({
            "pending": census["pending"],
            "claimable": census["claimable"],
            "leased": census["leased"],
            "completed": done,
            "failed": census["failed"],
            "quarantined": census["quarantined"],
            "done": terminal,
            "state": "complete" if terminal >= total else (
                "running" if census["leased"] else "queued"
            ),
        })
        return out

    def results_path(self, sub_id: str) -> Path | None:
        """Materialise ``results.jsonl`` for a submission (idempotent,
        campaign run order — the bytes ``campaign --join`` leaves)."""
        record = self.get(sub_id)
        if record is None:
            return None
        spec = CampaignSpec.from_dict(record["spec"])  # type: ignore[arg-type]
        store = ResultStore(self.store_dir(sub_id))
        path = store.root / "results.jsonl"
        store.export_jsonl(path, run_ids=[r.run_id for r in spec.expand()])
        return path
