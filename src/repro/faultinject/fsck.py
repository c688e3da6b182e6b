"""``repro fsck`` — on-disk invariant checking for durable state.

Walks a campaign/replay result store (or an ingested archive) and
verifies every invariant the crash-recovery design promises:

* **result records** parse, carry the schema version, and match their
  own content hash (``run_id_of(params)`` == file name — a record can
  never be attributed to different params);
* **manifest ↔ batch consistency** — the columnar manifest's row
  counts fit inside the column files; surplus bytes past the count
  are a *torn tail* (recoverable by design, reported as a warning);
* **idempotence-mark coherence** — every mark's start row lies inside
  its family, every replayed window has its marks, and the ``jobs``
  row count equals the sum of per-window flush counts;
* **snapshot content hashes** — header parses, payload length and
  SHA-256 match, without unpickling (fsck never executes payloads);
* **stitched.json ↔ columnar agreement** — the persisted whole-trace
  summary equals a fresh recompute from the column files;
* **archive integrity** — window files match the manifest's row
  counts and the ``archive_id`` content hash recomputes.

* **work-queue hygiene** — orphaned or dead-holder lease files and
  stale failpoint-stamp / temp residue under ``<store>/.queue/`` are
  warnings (the queue supervisor recovers all of them); ``--repair``
  reaps the provably-safe subset.

Leftover ``.*.tmp`` files (a crash inside
:func:`~repro.storage.durable.write_atomic` or ``create_exclusive``)
are warnings: harmless garbage, never visible data.

Exit codes (via the CLI): 0 all invariants hold, 1 violations found,
2 the path is not a store/archive at all.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError, SnapshotError

#: Result-record file names are 16-hex-char content hashes.
_RECORD_RE = re.compile(r"^[0-9a-f]{16}\.json$")

#: Visible JSON files in a store root that are not result records.
_SPECIAL_JSON = {"stitched.json", "quarantine.json"}


@dataclass(frozen=True)
class Finding:
    """One invariant check outcome worth reporting."""

    level: str  # "error" | "warning"
    code: str   # stable machine-readable kind, e.g. "record.hash"
    path: str
    message: str

    def render(self) -> str:
        return f"{self.level.upper():7s} [{self.code}] {self.path}: {self.message}"


@dataclass
class FsckReport:
    """Everything one fsck pass found (and how much it looked at)."""

    root: str
    kind: str  # "store" | "columnar" | "archive"
    findings: list[Finding] = field(default_factory=list)
    checked: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(f.level == "error" for f in self.findings)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.level == "error")

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.level == "warning")

    def add(self, level: str, code: str, path: str | Path, message: str) -> None:
        self.findings.append(Finding(level, code, str(path), message))

    def count(self, what: str, n: int = 1) -> None:
        self.checked[what] = self.checked.get(what, 0) + n

    def as_dict(self) -> dict[str, object]:
        return {
            "root": self.root,
            "kind": self.kind,
            "ok": self.ok,
            "checked": dict(sorted(self.checked.items())),
            "findings": [
                {
                    "level": f.level,
                    "code": f.code,
                    "path": f.path,
                    "message": f.message,
                }
                for f in self.findings
            ],
        }

    def render(self) -> str:
        lines = [f"fsck {self.root} ({self.kind})"]
        for f in self.findings:
            lines.append("  " + f.render())
        checked = ", ".join(
            f"{n} {what}" for what, n in sorted(self.checked.items())
        )
        verdict = "clean" if self.ok else "INCONSISTENT"
        lines.append(
            f"  checked: {checked or 'nothing'}"
        )
        lines.append(
            f"  {verdict}: {self.errors} error(s), {self.warnings} warning(s)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Entry point and dispatch
# ----------------------------------------------------------------------
def fsck_path(root: str | Path, *, repair: bool = False) -> FsckReport:
    """Check whatever durable artifact lives at *root*.

    Dispatches on the on-disk markers: an archive manifest, a
    standalone columnar store, or a campaign/replay result store.
    Raises :class:`~repro.errors.ConfigError` when *root* is none of
    those (CLI exit 2).  With *repair*, queue leases whose holder pid
    is provably dead are reaped, and stale failpoint stamps / temp
    residue under ``.queue/`` is deleted — repair never touches
    records, items, or any other visible data.
    """
    from repro.archive.columnar import COLUMNAR_MAGIC
    from repro.archive.ingest import ARCHIVE_MAGIC

    root = Path(root)
    if not root.is_dir():
        raise ConfigError(f"{root}: not a directory")
    manifest = root / "manifest.json"
    if manifest.is_file():
        try:
            head = manifest.read_text(encoding="utf-8", errors="replace")[:4096]
        except OSError:
            head = ""
        if ARCHIVE_MAGIC in head:
            return fsck_archive(root)
        if COLUMNAR_MAGIC in head:
            report = FsckReport(root=str(root), kind="columnar")
            _check_columnar(report, root)
            return report
    is_store = (
        (root / ".campaign.json").is_file()
        or (root / "stitched.json").is_file()
        or (root / "columnar").is_dir()
        or any(_RECORD_RE.match(p.name) for p in root.glob("*.json"))
    )
    if not is_store:
        raise ConfigError(
            f"{root}: not a repro result store, columnar store or archive"
        )
    return fsck_store(root, repair=repair)


# ----------------------------------------------------------------------
# Campaign / replay result stores
# ----------------------------------------------------------------------
def fsck_store(root: str | Path, *, repair: bool = False) -> FsckReport:
    """Check a campaign (or replay) result store directory."""
    root = Path(root)
    report = FsckReport(root=str(root), kind="store")
    records = _check_records(report, root)
    _check_campaign_manifest(report, root)
    _check_results_jsonl(report, root, records)
    _check_tmp_residue(report, root)
    _check_queue(report, root, records, repair=repair)
    for sub in ("snapshots", "boundaries"):
        directory = root / sub
        if directory.is_dir():
            for snap in sorted(directory.glob("*.snap")):
                _check_snapshot(report, snap)
    columnar = root / "columnar"
    if (columnar / "manifest.json").is_file():
        store = _check_columnar(report, columnar)
        if store is not None:
            _check_replay_coherence(report, root, store)
    return report


def _check_records(report: FsckReport, root: Path) -> dict[str, dict]:
    from repro.campaign.spec import run_id_of
    from repro.campaign.store import STORE_VERSION

    records: dict[str, dict] = {}
    for path in sorted(root.glob("*.json")):
        if path.name.startswith("."):
            continue
        if not _RECORD_RE.match(path.name):
            if path.name not in _SPECIAL_JSON:
                report.add(
                    "warning", "store.unexpected-file", path,
                    "not a result record (records are 16-hex-char hashes)",
                )
            continue
        report.count("records")
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            report.add("error", "record.parse", path, f"unreadable: {exc}")
            continue
        run_id = path.stem
        if record.get("run_id") != run_id:
            report.add(
                "error", "record.run-id", path,
                f"record claims run_id {record.get('run_id')!r}",
            )
        params = record.get("params")
        if not isinstance(params, dict):
            report.add("error", "record.params", path, "params missing")
        elif run_id_of(params) != run_id:
            report.add(
                "error", "record.hash", path,
                f"params hash to {run_id_of(params)}, not the file name "
                f"— the record was renamed or tampered with",
            )
        if record.get("store_version") != STORE_VERSION:
            report.add(
                "error", "record.version", path,
                f"store_version {record.get('store_version')!r} "
                f"(this build writes {STORE_VERSION})",
            )
        if "result" not in record:
            report.add("error", "record.result", path, "no result payload")
        records[run_id] = record
    return records


def _check_campaign_manifest(report: FsckReport, root: Path) -> None:
    path = root / ".campaign.json"
    if not path.is_file():
        return
    report.count("manifests")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        report.add("error", "manifest.parse", path, f"unreadable: {exc}")
        return
    if not isinstance(manifest, dict):
        report.add("error", "manifest.shape", path, "not a JSON object")


def _check_results_jsonl(
    report: FsckReport, root: Path, records: dict[str, dict]
) -> None:
    path = root / "results.jsonl"
    if not path.is_file():
        return
    report.count("jsonl-files")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        report.add("error", "jsonl.read", path, f"unreadable: {exc}")
        return
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            report.add(
                "error", "jsonl.parse", path,
                f"line {lineno} is not valid JSON (torn export?)",
            )
            continue
        run_id = entry.get("run_id") if isinstance(entry, dict) else None
        if not isinstance(run_id, str):
            report.add(
                "error", "jsonl.run-id", path, f"line {lineno} has no run_id"
            )
            continue
        stored = records.get(run_id)
        if stored is None:
            report.add(
                "warning", "jsonl.orphan", path,
                f"line {lineno}: run {run_id} has no record file "
                f"(deleted after export?)",
            )
        elif stored != entry:
            report.add(
                "error", "jsonl.stale", path,
                f"line {lineno}: run {run_id} disagrees with its record "
                f"file — re-export results.jsonl",
            )


def _check_tmp_residue(report: FsckReport, root: Path) -> None:
    for directory in (root, root / "columnar", root / "windows"):
        if not directory.is_dir():
            continue
        for tmp in sorted(directory.glob(".*.tmp")):
            report.add(
                "warning", "store.tmp-residue", tmp,
                "leftover temp file from an interrupted atomic write "
                "(harmless; safe to delete)",
            )


def _check_queue(
    report: FsckReport, root: Path, records: dict[str, dict],
    *, repair: bool = False,
) -> None:
    """Durable work-queue hygiene under ``<store>/.queue/``.

    Leases are advisory claims, so problems here are *warnings*, not
    errors: the queue's own supervisor pass recovers every one of
    them.  fsck surfaces them (a human reading ``repro fsck`` output
    should know a worker died holding a lease) and, with *repair*,
    reaps the provably-safe subset — leases whose recorded holder pid
    is dead on this host, stale failpoint stamps, and temp residue.
    """
    queue_root = root / ".queue"
    if not queue_root.is_dir():
        return
    from repro.campaign.lease import LeaseDir, local_host, pid_alive

    items_dir = queue_root / "items"
    leases = LeaseDir(queue_root / "leases")
    for run_id in leases.list():
        report.count("queue-leases")
        lease = leases.read(run_id)
        if lease is None:
            continue
        path = leases.path_for(run_id)
        has_item = (items_dir / f"{run_id}.json").is_file()
        if not has_item:
            report.add(
                "warning", "queue.lease-orphan", path,
                "lease without a queue item (holder crashed between "
                "retiring the item and releasing the lease); the next "
                "supervisor pass removes it",
            )
        if lease.pid == 0:
            report.add(
                "warning", "queue.lease-unreadable", path,
                "empty or malformed lease (holder killed mid-claim); "
                "ages out via the queue TTL",
            )
            continue
        dead = lease.host == local_host() and not pid_alive(lease.pid)
        if dead:
            if repair:
                path.unlink(missing_ok=True)
                report.add(
                    "warning", "queue.lease-repaired", path,
                    f"reaped: holder pid {lease.pid} is dead "
                    f"(token {lease.token})",
                )
            else:
                report.add(
                    "warning", "queue.lease-dead-holder", path,
                    f"holder pid {lease.pid}@{lease.host} is dead "
                    f"(token {lease.token}); --repair reaps it",
                )
    for item_path in sorted(items_dir.glob("*.json")):
        if item_path.name.startswith("."):
            continue
        report.count("queue-items")
        if item_path.stem in records:
            report.add(
                "warning", "queue.item-done", item_path,
                "queue item for a run whose result is already stored "
                "(crash between commit and retirement); the next "
                "claimant retires it",
            )
    residue = []
    for pattern in ("*.fired", "*.tmp", ".*.tmp"):
        residue.extend(queue_root.rglob(pattern))
    for stray in sorted(set(residue)):
        kind = "failpoint stamp" if stray.suffix == ".fired" else "atomic write"
        if repair:
            stray.unlink(missing_ok=True)
            report.add(
                "warning", "queue.residue-repaired", stray,
                f"deleted stale {kind} residue",
            )
        else:
            report.add(
                "warning", "queue.residue", stray,
                f"leftover {kind} residue from an interrupted worker "
                f"(harmless; --repair deletes it)",
            )
    _check_metrics_sidecars(report, queue_root, repair=repair)


def _check_metrics_sidecars(
    report: FsckReport, queue_root: Path, *, repair: bool
) -> None:
    """Fleet event sidecars (``metrics/*.events.jsonl``) hygiene.

    Appends are fsync'd but a hard kill mid-append (the
    ``queue.metrics.write`` failpoint) leaves a torn final line.
    Readers tolerate it; fsck names it, and --repair truncates the
    file back to its last complete line.  A garbled line *before* the
    tail cannot come from a crash (O_APPEND single-write lines), so
    it is called out separately as likely tampering.
    """
    metrics_dir = queue_root / "metrics"
    if not metrics_dir.is_dir():
        return
    for path in sorted(metrics_dir.glob("*.events.jsonl")):
        report.count("queue-metrics-sidecars")
        try:
            raw = path.read_bytes()
        except OSError as exc:
            report.add(
                "warning", "queue.metrics-unreadable", path,
                f"unreadable event sidecar: {exc}",
            )
            continue
        lines = raw.split(b"\n")
        # 0-based index of each line's first byte in the file.
        offsets = [0]
        for line in lines[:-1]:
            offsets.append(offsets[-1] + len(line) + 1)
        bad: list[int] = []
        last_nonempty = -1
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            last_nonempty = index
            try:
                ok = isinstance(json.loads(line), dict)
            except (json.JSONDecodeError, UnicodeDecodeError):
                ok = False
            if not ok:
                bad.append(index)
        if not bad:
            continue
        if bad == [last_nonempty]:
            if repair:
                with path.open("r+b") as handle:
                    handle.truncate(offsets[bad[0]])
                report.add(
                    "warning", "queue.metrics-repaired", path,
                    f"truncated torn tail back to {offsets[bad[0]]} bytes",
                )
            else:
                report.add(
                    "warning", "queue.metrics-torn-tail", path,
                    "torn final event line (holder killed mid-append); "
                    "readers skip it; --repair truncates it",
                )
        else:
            report.add(
                "warning", "queue.metrics-garbled", path,
                f"unparseable event lines {[i + 1 for i in bad]} before "
                f"the tail — not a crash signature; inspect before "
                f"trusting metrics",
            )


def _check_snapshot(report: FsckReport, path: Path) -> None:
    """Header + content-hash verification, without unpickling."""
    from repro.snapshot.state import read_snapshot_header

    report.count("snapshots")
    try:
        header = read_snapshot_header(path)
    except SnapshotError as exc:
        report.add("error", "snapshot.header", path, str(exc))
        return
    try:
        with path.open("rb") as handle:
            handle.readline()
            payload = handle.read()
    except OSError as exc:
        report.add("error", "snapshot.read", path, f"unreadable: {exc}")
        return
    if len(payload) != header.get("payload_bytes"):
        report.add(
            "error", "snapshot.truncated", path,
            f"payload holds {len(payload)} of "
            f"{header.get('payload_bytes')} bytes",
        )
        return
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        report.add(
            "error", "snapshot.checksum", path,
            "payload SHA-256 does not match the header",
        )


# ----------------------------------------------------------------------
# Columnar stores
# ----------------------------------------------------------------------
def _check_columnar(report: FsckReport, root: Path):
    """Manifest ↔ column-file consistency; returns the open store
    (None when the manifest itself is unreadable)."""
    from repro.archive.columnar import ColumnarStore

    try:
        store = ColumnarStore(root)
    except ConfigError as exc:
        report.add("error", "columnar.manifest", root / "manifest.json", str(exc))
        return None
    for family in store.families():
        report.count("families")
        rows = store.rows(family)
        try:
            itemsize = store.dtype(family).itemsize
        except (ConfigError, TypeError, ValueError) as exc:
            report.add(
                "error", "columnar.dtype", root / "manifest.json",
                f"family {family!r}: bad dtype: {exc}",
            )
            continue
        path = store.path_for(family)
        try:
            size = path.stat().st_size
        except OSError:
            if rows:
                report.add(
                    "error", "columnar.missing", path,
                    f"manifest says {rows} rows but the column file "
                    f"is missing",
                )
            continue
        need = rows * itemsize
        if size < need:
            report.add(
                "error", "columnar.rows", path,
                f"manifest says {rows} rows ({need} bytes) but the file "
                f"holds only {size} bytes",
            )
        elif size > need:
            report.add(
                "warning", "columnar.torn-tail", path,
                f"{size - need} surplus bytes past the manifest's row "
                f"count (torn append; invisible and overwritten on the "
                f"next write)",
            )
    for key, start in sorted(store._manifest["marks"].items()):
        report.count("marks")
        if not isinstance(start, int) or start < 0:
            report.add(
                "error", "mark.start", root / "manifest.json",
                f"mark {key!r}: start row {start!r} is not a "
                f"non-negative integer",
            )
            continue
        parts = key.split(":")
        family = parts[1] if len(parts) == 3 else None
        if family in store.families() and start > store.rows(family):
            report.add(
                "error", "mark.range", root / "manifest.json",
                f"mark {key!r}: start row {start} lies past the "
                f"{store.rows(family)} rows of family {family!r}",
            )
    return store


# ----------------------------------------------------------------------
# Replay-specific coherence
# ----------------------------------------------------------------------
def _check_replay_coherence(report: FsckReport, root: Path, store) -> None:
    if "windows" not in store.families():
        return
    windows = store.read("windows")
    indices = [int(w) for w in windows["window"]]
    if sorted(indices) != list(range(len(indices))):
        report.add(
            "error", "windows.sequence", store.path_for("windows"),
            f"window indices {sorted(indices)} are not the contiguous "
            f"range 0..{len(indices) - 1}",
        )
    flushed_total = int(windows["jobs_flushed"].sum()) if len(windows) else 0
    jobs_rows = store.rows("jobs")
    if flushed_total != jobs_rows:
        report.add(
            "error", "windows.flush-sum", store.path_for("jobs"),
            f"windows say {flushed_total} jobs were flushed but the "
            f"jobs family holds {jobs_rows} rows",
        )
    marks = set(store.marks())
    chains = {k.split(":")[0] for k in marks if len(k.split(":")) == 3}
    by_window = {int(w["window"]): w for w in windows}
    for chain in sorted(chains):
        for idx, row in by_window.items():
            if f"{chain}:windows:{idx}" not in marks:
                report.add(
                    "error", "mark.window-missing", store.root,
                    f"window {idx} has rows but no "
                    f"{chain}:windows:{idx} idempotence mark",
                )
            if (
                int(row["jobs_flushed"]) > 0
                and f"{chain}:jobs:{idx}" not in marks
            ):
                report.add(
                    "error", "mark.jobs-missing", store.root,
                    f"window {idx} flushed {int(row['jobs_flushed'])} "
                    f"jobs but has no {chain}:jobs:{idx} mark",
                )
    _check_stitched(report, root, store)


def _check_stitched(report: FsckReport, root: Path, store) -> None:
    path = root / "stitched.json"
    if not path.is_file():
        return
    report.count("stitched")
    try:
        stitched = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        report.add("error", "stitched.parse", path, f"unreadable: {exc}")
        return
    from repro.archive.replay import stitched_summary

    recomputed = stitched_summary(store.root)
    for key, want in recomputed.items():
        got = stitched.get(key)
        if got != want:
            report.add(
                "error", "stitched.mismatch", path,
                f"{key}: stitched.json says {got!r} but the columnar "
                f"store recomputes to {want!r}",
            )


# ----------------------------------------------------------------------
# Ingested archives
# ----------------------------------------------------------------------
def fsck_archive(root: str | Path) -> FsckReport:
    """Check an ingested window archive: manifest ↔ window files ↔
    ``archive_id`` content hash."""
    from repro.archive.columnar import SPECS_DTYPE

    root = Path(root)
    report = FsckReport(root=str(root), kind="archive")
    path = root / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        report.add("error", "archive.manifest", path, f"unreadable: {exc}")
        return report
    hasher = hashlib.sha256()
    hasher.update(
        json.dumps(
            {
                "cores_per_node": manifest.get("cores_per_node"),
                "app_names": manifest.get("app_names"),
            },
            sort_keys=True,
        ).encode("utf-8")
    )
    total_jobs = 0
    for meta in manifest.get("windows", []):
        report.count("windows")
        window_path = root / str(meta["file"])
        try:
            data = window_path.read_bytes()
        except OSError as exc:
            report.add(
                "error", "archive.window-missing", window_path,
                f"unreadable: {exc}",
            )
            continue
        want = int(meta["jobs"]) * SPECS_DTYPE.itemsize
        if len(data) != want:
            report.add(
                "error", "archive.window-size", window_path,
                f"{len(data)} bytes on disk, manifest says "
                f"{meta['jobs']} records ({want} bytes)",
            )
        hasher.update(data)
        total_jobs += int(meta["jobs"])
    if total_jobs != int(manifest.get("jobs", -1)):
        report.add(
            "error", "archive.job-count", path,
            f"windows sum to {total_jobs} jobs, manifest says "
            f"{manifest.get('jobs')}",
        )
    if report.ok:
        recomputed = hasher.hexdigest()[:16]
        if recomputed != manifest.get("archive_id"):
            report.add(
                "error", "archive.id", path,
                f"archive_id recomputes to {recomputed}, manifest says "
                f"{manifest.get('archive_id')!r} — window bytes changed "
                f"after ingestion",
            )
    quarantine = root / "quarantine.json"
    if quarantine.is_file():
        try:
            json.loads(quarantine.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            report.add(
                "error", "archive.quarantine", quarantine,
                f"unreadable: {exc}",
            )
    _check_tmp_residue(report, root)
    return report
