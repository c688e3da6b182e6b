"""Archive ingestion: SWF file → on-disk window archive.

:func:`ingest_swf` streams an SWF trace through the chunked reader
and the window planner, persisting each closed window as a raw
:data:`~repro.archive.columnar.SPECS_DTYPE` record file under
``<out>/windows/`` plus a JSON manifest describing every window
(row count, submit range, boundary, carried set) and the lenient-
mode quarantine outcome.  Peak memory is one window plus one input
chunk — constant in trace length.

The manifest carries an ``archive_id``: a content hash over the
ingestion parameters and every window's record bytes.  Replay runs
embed this id in their campaign params, so results can never be
silently attributed to a different (re-ingested, re-quarantined)
archive with the same directory name.

:func:`load_archive` opens an ingested directory for replay;
:meth:`Archive.window_trace` reconstructs one window as an ordinary
:class:`~repro.workload.trace.WorkloadTrace`, identical to what
:func:`~repro.workload.swf.read_swf` would have produced for those
lines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from repro.archive.columnar import SPECS_DTYPE, array_to_specs, specs_to_array
from repro.archive.stream import DEFAULT_CHUNK_JOBS, iter_swf_chunks
from repro.archive.windows import DEFAULT_WINDOW_JOBS, WindowPlanner
from repro.diagnostics.ingest import AnomalyReport
from repro.errors import ConfigError, TraceFormatError
from repro.storage.durable import write_atomic
from repro.workload.swf import read_swf_header_apps
from repro.workload.trace import WorkloadTrace

#: Format marker in every archive manifest.
ARCHIVE_MAGIC = "repro-archive"

#: Bumped on incompatible manifest/window-file changes.
ARCHIVE_VERSION = 1

MANIFEST_NAME = "manifest.json"
QUARANTINE_NAME = "quarantine.json"
WINDOWS_DIR = "windows"


@dataclass(frozen=True)
class IngestResult:
    """Summary of one :func:`ingest_swf` call."""

    out_dir: Path
    archive_id: str
    jobs: int
    windows: int
    quarantined: int

    def as_dict(self) -> dict[str, object]:
        return {
            "out_dir": str(self.out_dir),
            "archive_id": self.archive_id,
            "jobs": self.jobs,
            "windows": self.windows,
            "quarantined": self.quarantined,
        }


def ingest_swf(
    source: str | Path | TextIO,
    out_dir: str | Path,
    window_jobs: int = DEFAULT_WINDOW_JOBS,
    chunk_jobs: int = DEFAULT_CHUNK_JOBS,
    cores_per_node: int = 1,
    app_names: Sequence[str] | None = None,
    mode: str = "lenient",
    max_procs: int | None = None,
    max_jobs: int | None = None,
    name: str | None = None,
) -> IngestResult:
    """Stream *source* into a window archive at *out_dir*.

    *app_names* defaults to the mapping recorded in the SWF header
    (when *source* is a path) so repro-written traces round-trip
    their app labels without the caller re-supplying them.
    """
    out = Path(out_dir)
    windows_dir = out / WINDOWS_DIR
    windows_dir.mkdir(parents=True, exist_ok=True)
    if app_names is None:
        app_names = (
            read_swf_header_apps(source)
            if isinstance(source, (str, Path))
            else []
        )
    app_names = list(app_names)
    app_index = {app: i + 1 for i, app in enumerate(app_names)}
    if name is None:
        name = (
            Path(source).stem if isinstance(source, (str, Path)) else "archive"
        )

    anomalies = AnomalyReport()
    planner = WindowPlanner(window_jobs)
    windows_meta: list[dict[str, object]] = []
    hasher = hashlib.sha256()
    hasher.update(
        json.dumps(
            {"cores_per_node": cores_per_node, "app_names": app_names},
            sort_keys=True,
        ).encode("utf-8")
    )

    def persist(window) -> None:
        array = specs_to_array(window.specs, app_index)
        data = array.tobytes()
        hasher.update(data)
        file_name = f"window-{window.index:05d}.col"
        write_atomic(
            windows_dir / file_name, data,
            write_fp="archive.window.write", rename_fp="archive.window.rename",
        )
        windows_meta.append({
            "index": window.index,
            "file": f"{WINDOWS_DIR}/{file_name}",
            "jobs": len(window.specs),
            "first_submit": window.first_submit,
            "last_submit": window.last_submit,
            "boundary": window.boundary,
            "carried": list(window.carried_in),
        })

    for chunk in iter_swf_chunks(
        source,
        chunk_jobs=chunk_jobs,
        cores_per_node=cores_per_node,
        app_names=app_names,
        mode=mode,
        max_procs=max_procs,
        max_jobs=max_jobs,
        anomalies=anomalies,
    ):
        for spec in chunk:
            closed = planner.push(spec)
            if closed is not None:
                persist(closed)
    final = planner.finish()
    if final is not None:
        persist(final)
    if not windows_meta:
        raise TraceFormatError(
            f"{source}: no admissible jobs — nothing to archive"
        )

    archive_id = hasher.hexdigest()[:16]
    manifest = {
        "format": ARCHIVE_MAGIC,
        "version": ARCHIVE_VERSION,
        "name": name,
        "archive_id": archive_id,
        "cores_per_node": cores_per_node,
        "mode": mode,
        "max_procs": max_procs,
        "app_names": app_names,
        "jobs": planner.total_jobs,
        "window_jobs": window_jobs,
        "quarantined": anomalies.quarantined,
        "windows": windows_meta,
    }
    write_atomic(
        out / MANIFEST_NAME,
        json.dumps(manifest, sort_keys=True, indent=1).encode("utf-8"),
        write_fp="archive.manifest.write", rename_fp="archive.manifest.rename",
    )
    write_atomic(
        out / QUARANTINE_NAME,
        json.dumps(anomalies.as_dict(), indent=1).encode("utf-8"),
        write_fp="archive.manifest.write", rename_fp="archive.manifest.rename",
    )
    return IngestResult(
        out_dir=out,
        archive_id=archive_id,
        jobs=planner.total_jobs,
        windows=len(windows_meta),
        quarantined=anomalies.quarantined,
    )


class Archive:
    """Read handle over an ingested window archive."""

    def __init__(self, root: str | Path, manifest: dict) -> None:
        self.root = Path(root)
        self.manifest = manifest
        self.archive_id: str = manifest["archive_id"]
        self.name: str = manifest["name"]
        self.app_names: list[str] = list(manifest["app_names"])
        self.jobs: int = int(manifest["jobs"])
        self.windows: list[dict] = list(manifest["windows"])

    def __len__(self) -> int:
        return len(self.windows)

    def window_meta(self, index: int) -> dict:
        if not 0 <= index < len(self.windows):
            raise ConfigError(
                f"archive {self.name} has {len(self.windows)} windows, "
                f"no window {index}"
            )
        return self.windows[index]

    def boundary_of(self, index: int) -> float | None:
        """Stitch point after window *index* (None for the last)."""
        value = self.window_meta(index)["boundary"]
        return None if value is None else float(value)

    def window_specs(self, index: int) -> list:
        meta = self.window_meta(index)
        path = self.root / str(meta["file"])
        data = path.read_bytes()
        array = np.frombuffer(data, dtype=SPECS_DTYPE)
        if len(array) != int(meta["jobs"]):
            raise ConfigError(
                f"{path}: {len(array)} records on disk, manifest "
                f"says {meta['jobs']} — archive is corrupt"
            )
        return array_to_specs(array, self.app_names)

    def window_trace(self, index: int) -> WorkloadTrace:
        """One window as an ordinary in-memory trace."""
        return WorkloadTrace(
            self.window_specs(index),
            name=f"{self.name}:w{index}",
        )


def load_archive(root: str | Path) -> Archive:
    """Open an ingested archive directory for replay."""
    root = Path(root)
    path = root / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read archive manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed archive manifest") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != ARCHIVE_MAGIC:
        raise ConfigError(f"{root} is not a repro archive directory")
    if manifest.get("version") != ARCHIVE_VERSION:
        raise ConfigError(
            f"{path}: archive version {manifest.get('version')!r} "
            f"(this build reads version {ARCHIVE_VERSION})"
        )
    return Archive(root, manifest)
