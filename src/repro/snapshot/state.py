"""Versioned, content-hashed serialization of simulator state.

A snapshot captures the *complete* simulation world mid-run — the
:class:`~repro.engine.heap.EventHeap` with its pending (and lazily
cancelled) events, every RNG bit-generator state, cluster/node/
allocation occupancy, the SLURM queue/manager/accounting state, and
the metric collectors — as one atomic file, so a preempted run can be
restored and continued **byte-identically** to an uninterrupted one.

File format (version 3)::

    <header JSON, one line, utf-8>\\n
    <zlib-compressed pickle payload>

The header carries the format version, the payload codec, the run's
``spec_hash`` (the campaign run id — a content hash of the run
params), the simulated time and event count at capture, and the
SHA-256 of the on-disk payload bytes (compressed form — checksum
verification never has to inflate a corrupt file).  Version 1 wrote
the pickle uncompressed; version 2 compresses it at zlib level 6
(perfbench's replay-windows reports the bytes written per snapshot as
``snapshot.bytes_mean``).  Version 3 keeps that codec and changes the
payload: the simulator's flight ring pickles empty (its records and
the diagnostics class that held them are gone), and the simulator
keeps the time of its last dispatched event.  Files of an older
version are *not* readable by this build — by design: the header's
version check makes stale snapshots restart fresh rather than
resuming subtly wrong, before any of their payload is unpickled.
:func:`read_snapshot` refuses version mismatches, checksum failures
and spec-hash mismatches with a categorised :class:`SnapshotError`,
so a stale snapshot (the run's parameters changed) invalidates itself
instead of silently resuming the wrong simulation.

Pickle is the payload codec deliberately: the manager's object graph
is cyclic (jobs hold their finish events, events hold their jobs, the
engine's handler table holds bound methods of the manager) and pickle
preserves those identities exactly — which the engine's ``event is
job.finish_event`` staleness checks rely on after a restore.
Snapshots are therefore *trusted* artifacts: only load files your own
campaign wrote.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import SnapshotError
from repro.storage.durable import write_atomic

if TYPE_CHECKING:  # pragma: no cover
    from repro.slurm.manager import WorkloadManager

#: Format marker in every snapshot header.
SNAPSHOT_MAGIC = "repro-snapshot"

#: Bumped on any incompatible change to the payload or header schema;
#: readers refuse other versions (the run simply restarts fresh).
#: Version 2: payload is zlib-compressed; header gains ``codec`` and
#: ``raw_bytes``.  Version 3: the payload holds no flight-ring records.
SNAPSHOT_VERSION = 3

#: Payload codec written by this build.
SNAPSHOT_CODEC = "zlib"

#: zlib level 6: the default speed/ratio tradeoff — snapshot writes
#: sit on the run's critical path, so max compression is not worth it.
_ZLIB_LEVEL = 6

#: Protocol 4 is the floor for Python 3.10+ and keeps snapshots
#: readable across the interpreter versions CI exercises.
PICKLE_PROTOCOL = 4

#: Suffix for snapshot files next to campaign results.
SNAPSHOT_SUFFIX = ".snap"


def snapshot_path_for(directory: str | Path, run_id: str) -> Path:
    """Canonical snapshot location for one campaign run."""
    return Path(directory) / f"{run_id}{SNAPSHOT_SUFFIX}"


def snapshot_bytes(manager: "WorkloadManager") -> bytes:
    """Serialise the full manager graph (engine included) to bytes."""
    return pickle.dumps(manager, protocol=PICKLE_PROTOCOL)


def write_snapshot(
    manager: "WorkloadManager",
    path: str | Path,
    spec_hash: str | None = None,
) -> Path:
    """Atomically persist *manager*'s state to *path*.

    Written through :func:`~repro.storage.durable.write_atomic`, so a
    crash mid-write leaves either the previous snapshot or the
    complete new one — never a truncated file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    raw = snapshot_bytes(manager)
    payload = zlib.compress(raw, _ZLIB_LEVEL)
    header = {
        "format": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "codec": SNAPSHOT_CODEC,
        "spec_hash": spec_hash,
        "sim_time": float(manager.sim.now),
        "events_dispatched": int(manager.sim.events_dispatched),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "raw_bytes": len(raw),
    }
    data = (
        json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
    )
    return write_atomic(
        path, data, write_fp="snapshot.write", rename_fp="snapshot.rename"
    )


def read_snapshot_header(path: str | Path) -> dict:
    """Parse and validate a snapshot file's header (cheap: one line)."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            line = handle.readline()
    except OSError as exc:
        raise SnapshotError(
            f"cannot read snapshot {path}: {exc}", reason="unreadable"
        ) from exc
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(
            f"{path}: malformed snapshot header", reason="format"
        ) from exc
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_MAGIC:
        raise SnapshotError(
            f"{path} is not a repro snapshot file", reason="format"
        )
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot version {header.get('version')!r} "
            f"(this build reads version {SNAPSHOT_VERSION})",
            reason="version",
        )
    return header


def read_snapshot(
    path: str | Path, expect_spec_hash: str | None = None
) -> "WorkloadManager":
    """Restore a manager from *path*, verifying integrity first.

    With *expect_spec_hash* given, a snapshot written for different
    run params is rejected (``reason="spec_hash"``) — the caller
    should fall back to a fresh run.
    """
    import time as _wallclock

    restore_started = _wallclock.perf_counter()
    path = Path(path)
    header = read_snapshot_header(path)
    if (
        expect_spec_hash is not None
        and header.get("spec_hash") != expect_spec_hash
    ):
        raise SnapshotError(
            f"{path}: snapshot was written for spec "
            f"{header.get('spec_hash')!r}, expected {expect_spec_hash!r}",
            reason="spec_hash",
        )
    with path.open("rb") as handle:
        handle.readline()  # skip the header line
        payload = handle.read()
    if len(payload) != header.get("payload_bytes"):
        raise SnapshotError(
            f"{path}: truncated payload ({len(payload)} of "
            f"{header.get('payload_bytes')} bytes)",
            reason="checksum",
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise SnapshotError(
            f"{path}: payload checksum mismatch", reason="checksum"
        )
    if header.get("codec") == SNAPSHOT_CODEC:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise SnapshotError(
                f"{path}: payload does not decompress: {exc}",
                reason="format",
            ) from exc
    try:
        manager = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of error types
        raise SnapshotError(
            f"{path}: payload does not deserialise: {exc}", reason="format"
        ) from exc
    # Stamp resume provenance so telemetry can report it.  Wall-clock
    # facts never enter result payloads; getattr keeps snapshots from
    # builds that predate these fields loadable.
    manager.resume_count = getattr(manager, "resume_count", 0) + 1
    manager.restore_wall_s = (
        getattr(manager, "restore_wall_s", 0.0)
        + (_wallclock.perf_counter() - restore_started)
    )
    return manager
