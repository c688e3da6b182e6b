"""Columnar, append-only record store for archive-scale results.

A :class:`ColumnarStore` is a directory of fixed-dtype binary column
files (one per *metric family*) plus a JSON manifest.  It exists
because the campaign :class:`~repro.campaign.store.ResultStore` —
one JSON document per run — is the wrong shape for 10⁵–10⁶ per-job
records: aggregating a million jobs must be a handful of
``np.memmap`` batch reads, not a million ``json.loads`` calls.

Layout::

    <root>/manifest.json          # authoritative row counts + dtypes
    <root>/<family>.col           # raw C-contiguous record bytes

Crash safety is the manifest's job.  A commit first truncates each
column file it extends to the manifest's row count (erasing any torn
tail a previous crash left), writes + fsyncs the new records, and
only then atomically rewrites the manifest.  A crash at any point
leaves the manifest describing a fully-written prefix; whatever bytes
follow it are ignored and overwritten by the next commit.

:meth:`append_once` adds idempotence on top: each append is tagged
with a caller-chosen *mark* key recorded in the same manifest write.
Re-executing a producer (e.g. a replay window whose commit was lost)
re-calls ``append_once`` with the same key and becomes a no-op — the
store never double-counts a window.

:meth:`ColumnarStore.batch` widens that commit to every append inside
the block: the appends are staged in memory, and a clean exit writes
one truncate-first write and fsync per family that gained rows, then
one manifest carrying every new row count and mark — so a producer's
marks (a replay's ``jobs`` and ``windows`` rows for a whole group of
windows) become visible together or not at all.  Staged rows are
invisible to :meth:`~ColumnarStore.rows`, :meth:`~ColumnarStore.read`
and the marks until that commit.  An append outside any batch is a
batch of one.  The manifest is written compact (``sort_keys``, no
indentation); stores written with ``indent=1`` read the same.

The module also owns the fixed dtypes and the converters between
them and the domain objects (:class:`~repro.slurm.accounting.
JobRecord`, :class:`~repro.workload.spec.JobSpec`).
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.faultinject import with_io_retries
from repro.slurm.accounting import JobRecord
from repro.slurm.job import JobState
from repro.storage.durable import append_durable, write_atomic
from repro.workload.spec import JobSpec

#: Format marker in the manifest of every columnar store.
COLUMNAR_MAGIC = "repro-columnar"

#: Bumped on any incompatible dtype or manifest schema change.
COLUMNAR_VERSION = 1

#: Manifest file name inside a columnar store root.
MANIFEST_NAME = "manifest.json"

#: Column file suffix.
COLUMN_SUFFIX = ".col"

#: Default batch size for streaming reads (rows per batch).
DEFAULT_BATCH_ROWS = 65536

#: Stable job-state codes for the ``state`` column.  Only terminal
#: states appear in accounting records.
JOB_STATE_CODES: dict[str, int] = {
    "COMPLETED": 0,
    "TIMEOUT": 1,
    "CANCELLED": 2,
    "FAILED": 3,
}
JOB_STATE_NAMES: dict[int, str] = {v: k for k, v in JOB_STATE_CODES.items()}

#: One row per terminated job — the ``sacct``-shaped metric family.
JOBS_DTYPE = np.dtype([
    ("job_id", "<i8"),
    ("num_nodes", "<i4"),
    ("state", "<u1"),
    ("was_shared", "<u1"),
    ("requeues", "<i2"),
    ("submit_time", "<f8"),
    ("start_time", "<f8"),
    ("end_time", "<f8"),
    ("shared_seconds", "<f8"),
    ("dilation", "<f8"),
    ("runtime_exclusive", "<f8"),
    ("walltime_req", "<f8"),
    ("work_done", "<f8"),
    ("lost_work", "<f8"),
])

#: One row per ingested job spec — what an archive window file holds.
#: Captures exactly the fields SWF can express (``app`` as an index
#: into the archive's app-name table, ``user`` as its numeric id).
SPECS_DTYPE = np.dtype([
    ("job_id", "<i8"),
    ("submit_time", "<f8"),
    ("num_nodes", "<i4"),
    ("walltime_req", "<f8"),
    ("runtime_exclusive", "<f8"),
    ("app_idx", "<i4"),
    ("shareable", "<u1"),
    ("user_id", "<i8"),
    ("memory_mb", "<f8"),
    ("depends_on", "<i8"),
])

#: One row per replayed window — the per-shard execution summary.
WINDOWS_DTYPE = np.dtype([
    ("window", "<i4"),
    ("jobs_loaded", "<i8"),
    ("jobs_flushed", "<i8"),
    ("events_dispatched", "<i8"),
    ("scheduler_passes", "<i8"),
    ("boundary_time", "<f8"),
    ("carried_running", "<i8"),
    ("carried_queued", "<i8"),
])


class ColumnarStore:
    """Directory of append-only fixed-dtype column files."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: The committed manifest: what the file on disk says.
        self._manifest = self._read_manifest()
        #: Inside :meth:`batch`: the manifest its commit will write
        #: (None outside any batch) ...
        self._next: dict | None = None
        #: ... and the ``(family, bytes)`` appends it will write.
        self._tail: list[tuple[str, bytes]] = []

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _read_manifest(self) -> dict:
        path = self.root / MANIFEST_NAME
        if not path.is_file():
            return {
                "format": COLUMNAR_MAGIC,
                "version": COLUMNAR_VERSION,
                "families": {},
                "marks": {},
            }
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(
                f"columnar manifest {path} is unreadable: {exc}"
            ) from exc
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != COLUMNAR_MAGIC
        ):
            raise ConfigError(f"{path} is not a columnar store manifest")
        if manifest.get("version") != COLUMNAR_VERSION:
            raise ConfigError(
                f"{path}: columnar version {manifest.get('version')!r} "
                f"(this build reads version {COLUMNAR_VERSION})"
            )
        manifest.setdefault("families", {})
        manifest.setdefault("marks", {})
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        # Compact on purpose: ``indent`` forces the pure-Python
        # encoder, about 3x slower on a many-mark manifest.
        data = json.dumps(
            manifest, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        write_atomic(
            self.root / MANIFEST_NAME, data,
            write_fp="columnar.manifest.write",
            rename_fp="columnar.manifest.rename",
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def is_store(root: str | Path) -> bool:
        """Cheap detection: does *root* hold a columnar manifest?"""
        path = Path(root) / MANIFEST_NAME
        try:
            with path.open("r", encoding="utf-8") as handle:
                head = handle.read(4096)
        except OSError:
            return False
        return COLUMNAR_MAGIC in head

    def families(self) -> list[str]:
        return sorted(self._manifest["families"])

    def rows(self, family: str) -> int:
        entry = self._manifest["families"].get(family)
        return int(entry["rows"]) if entry else 0

    def dtype(self, family: str) -> np.dtype:
        entry = self._manifest["families"].get(family)
        if entry is None:
            raise ConfigError(f"columnar store has no family {family!r}")
        return _entry_dtype(entry)

    def marked(self, key: str) -> bool:
        return key in self._manifest["marks"]

    def marks(self) -> list[str]:
        """Every idempotence mark key, sorted."""
        return sorted(self._manifest["marks"])

    def mark_row(self, key: str) -> int | None:
        """First row of the append tagged *key*; None when unmarked."""
        row = self._manifest["marks"].get(key)
        return None if row is None else int(row)

    def path_for(self, family: str) -> Path:
        if not family or "/" in family or family.startswith("."):
            raise ConfigError(f"invalid family name {family!r}")
        return self.root / f"{family}{COLUMN_SUFFIX}"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, family: str, records: np.ndarray) -> int:
        """Append *records*; returns the start row of the new batch.

        The column file is truncated to the manifest's row count
        first, so a torn tail from a crashed previous append is
        overwritten rather than accumulated.
        """
        return self._append(family, records, mark=None)

    def append_once(
        self, family: str, key: str, records: np.ndarray
    ) -> int | None:
        """Append exactly once per *key*; None when already applied
        (committed, or staged by the open batch).

        The mark lands in the same atomic manifest write as the row
        count, so "rows visible" and "mark present" cannot diverge.
        """
        staging = self._manifest if self._next is None else self._next
        if key in staging["marks"]:
            return None
        return self._append(family, records, mark=key)

    @contextlib.contextmanager
    def batch(self) -> Iterator["ColumnarStore"]:
        """Stage every append inside the block; commit them on exit.

        No column byte is written inside the block.  A clean exit
        makes one truncate-first write and fsync per family with
        staged rows, then one manifest write, and writes nothing when
        nothing was appended.  An exception inside the block drops
        every staged append; a failed commit leaves the in-memory
        manifest at the last committed one.  A batch opened inside
        another joins it: its appends commit with the outer block, and
        an exception inside it drops only the appends it staged.
        """
        if self._next is not None:
            saved = (_copy_manifest(self._next), len(self._tail))
            try:
                yield self
            except BaseException:
                self._next = saved[0]
                del self._tail[saved[1]:]
                raise
            return
        self._next = _copy_manifest(self._manifest)
        try:
            yield self
            manifest, tail = self._next, self._tail
        finally:
            self._next, self._tail = None, []
        if tail:
            self._commit(manifest, tail)

    def _commit(self, manifest: dict, tail: list[tuple[str, bytes]]) -> None:
        chunks: dict[str, list[bytes]] = {}
        for family, data in tail:
            chunks.setdefault(family, []).append(data)
        for family, parts in chunks.items():
            offset = self.rows(family) * _entry_dtype(
                manifest["families"][family]
            ).itemsize
            self._write_column(family, offset, b"".join(parts))
        self._write_manifest(manifest)
        self._manifest = manifest

    def _write_column(self, family: str, offset: int, data: bytes) -> None:
        path = self.path_for(family)

        def _attempt() -> None:
            # Re-seeking + truncating per attempt makes a retry after a
            # transient mid-write error start from a clean prefix.
            with open(path, "a+b") as handle:
                handle.seek(offset)
                handle.truncate()
                append_durable(handle, data, "columnar.append.write")

        with_io_retries(_attempt)

    def _append(
        self, family: str, records: np.ndarray, mark: str | None
    ) -> int:
        if self._next is None:
            with self.batch():
                return self._append(family, records, mark)
        records = np.ascontiguousarray(records)
        self.path_for(family)  # rejects a bad family name
        families = self._next["families"]
        entry = families.get(family)
        if entry is None:
            entry = {
                "file": f"{family}{COLUMN_SUFFIX}",
                "dtype": [
                    [name, records.dtype[name].str]
                    for name in records.dtype.names or ()
                ],
                "rows": 0,
            }
            if not entry["dtype"]:
                raise ConfigError(
                    f"family {family!r} needs a structured (record) dtype"
                )
        expected = _entry_dtype(entry)
        if records.dtype != expected:
            raise ConfigError(
                f"family {family!r} expects dtype {expected}, "
                f"got {records.dtype}"
            )
        families[family] = entry
        start = int(entry["rows"])
        entry["rows"] = start + len(records)
        if mark is not None:
            self._next["marks"][mark] = start
        self._tail.append((family, records.tobytes()))
        return start

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read(
        self, family: str, start: int = 0, count: int | None = None
    ) -> np.ndarray:
        """Memory-mapped read of ``[start, start+count)`` rows.

        Rows beyond the manifest count (a torn tail) are never
        exposed.  The returned array is a read-only view; copy before
        mutating.
        """
        dtype = self.dtype(family)
        total = self.rows(family)
        start = max(0, min(start, total))
        if count is None:
            count = total - start
        count = max(0, min(count, total - start))
        if count == 0:
            return np.empty(0, dtype=dtype)
        return np.memmap(
            self.path_for(family),
            dtype=dtype,
            mode="r",
            offset=start * dtype.itemsize,
            shape=(count,),
        )

    def iter_batches(
        self, family: str, batch_rows: int = DEFAULT_BATCH_ROWS
    ) -> Iterator[np.ndarray]:
        """Stream a family in bounded-memory batches."""
        if batch_rows < 1:
            raise ConfigError(f"batch_rows must be >= 1, got {batch_rows}")
        total = self.rows(family)
        for start in range(0, total, batch_rows):
            yield self.read(family, start, min(batch_rows, total - start))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = {f: self.rows(f) for f in self.families()}
        return f"ColumnarStore({str(self.root)!r}, rows={counts})"


def _entry_dtype(entry: dict) -> np.dtype:
    """The record dtype a manifest family entry describes."""
    return np.dtype([(name, code) for name, code in entry["dtype"]])


def _copy_manifest(manifest: dict) -> dict:
    """A copy a batch can stage into without touching *manifest*."""
    return {
        **manifest,
        "families": {
            family: dict(entry)
            for family, entry in manifest["families"].items()
        },
        "marks": dict(manifest["marks"]),
    }


# ----------------------------------------------------------------------
# Converters
# ----------------------------------------------------------------------
def job_records_to_array(records: Iterable[JobRecord]) -> np.ndarray:
    """Pack accounting records into a :data:`JOBS_DTYPE` array,
    preserving order (termination order — the identity the sharded
    replay tests compare byte-for-byte)."""
    records = list(records)
    out = np.empty(len(records), dtype=JOBS_DTYPE)
    for i, r in enumerate(records):
        out[i] = (
            r.job_id, r.num_nodes, JOB_STATE_CODES[r.state.name],
            1 if r.was_shared else 0, r.requeues,
            r.submit_time, r.start_time, r.end_time,
            r.shared_seconds, r.dilation,
            r.runtime_exclusive, r.walltime_req,
            r.work_done, r.lost_work,
        )
    return out


def _user_id_of(user: str) -> int:
    if user.startswith("user"):
        try:
            return int(user[4:])
        except ValueError:
            return 0
    return 0


def specs_to_array(
    specs: Sequence[JobSpec], app_index: dict[str, int]
) -> np.ndarray:
    """Pack job specs into a :data:`SPECS_DTYPE` array.  *app_index*
    maps app name → 1-based index (0 encodes the unknown app ``""``)."""
    out = np.empty(len(specs), dtype=SPECS_DTYPE)
    for i, s in enumerate(specs):
        out[i] = (
            s.job_id, s.submit_time, s.num_nodes,
            s.walltime_req, s.runtime_exclusive,
            app_index.get(s.app, 0), 1 if s.shareable else 0,
            _user_id_of(s.user), s.memory_mb_per_node, s.depends_on,
        )
    return out


def array_to_specs(
    array: np.ndarray, app_names: Sequence[str]
) -> list[JobSpec]:
    """Inverse of :func:`specs_to_array` — reconstructs the exact
    specs :func:`~repro.workload.swf.read_swf` would have produced."""
    specs: list[JobSpec] = []
    for row in array:
        app_idx = int(row["app_idx"])
        app = (
            app_names[app_idx - 1]
            if 1 <= app_idx <= len(app_names)
            else ""
        )
        specs.append(JobSpec(
            job_id=int(row["job_id"]),
            submit_time=float(row["submit_time"]),
            num_nodes=int(row["num_nodes"]),
            walltime_req=float(row["walltime_req"]),
            runtime_exclusive=float(row["runtime_exclusive"]),
            app=app,
            shareable=bool(row["shareable"]),
            user=f"user{int(row['user_id'])}",
            memory_mb_per_node=float(row["memory_mb"]),
            depends_on=int(row["depends_on"]),
        ))
    return specs


def record_state_name(code: int) -> str:
    """Human-readable job state for a ``state`` column value."""
    return JOB_STATE_NAMES.get(int(code), f"UNKNOWN({code})")


def array_to_job_states(array: np.ndarray) -> list[JobState]:
    """Decode the ``state`` column back into :class:`JobState`."""
    return [JobState[record_state_name(int(c))] for c in array["state"]]
