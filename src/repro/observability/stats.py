"""Store aggregation behind ``repro stats <store>``.

A campaign store holds one deterministic result record per run plus —
when the campaign ran with ``--telemetry`` — one *sidecar* file per
run under ``<store>/telemetry/`` carrying the nondeterministic
execution provenance (wall-clock, resume count, snapshot restore
time) and the run's merged telemetry hub.  Keeping the two apart is
what preserves the store's byte-identity guarantees; this module is
where they come back together for reporting.

:func:`aggregate_store` is the one aggregator for every store shape:
the JSON campaign store above, a replay store (JSON run records plus a
``columnar/`` subdirectory — the columnar view wins, that is where the
per-job truth lives) and a bare columnar root.  Columnar stores are
aggregated by streaming mmapped batches without a single
``json.loads``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigError
from repro.observability.hub import merge_hub_dicts

if TYPE_CHECKING:  # pragma: no cover
    from repro.archive.columnar import ColumnarStore

#: Subdirectory of a campaign store holding per-run telemetry sidecars.
TELEMETRY_DIR_NAME = "telemetry"

#: Suffix of one run's telemetry sidecar file.
TELEMETRY_SUFFIX = ".telemetry.json"


def telemetry_dir_for(store_dir: str | Path) -> Path:
    return Path(store_dir) / TELEMETRY_DIR_NAME


def telemetry_path_for(telemetry_dir: str | Path, run_id: str) -> Path:
    return Path(telemetry_dir) / f"{run_id}{TELEMETRY_SUFFIX}"


def write_telemetry_sidecar(
    telemetry_dir: str | Path, run_id: str, payload: Mapping[str, object]
) -> Path | None:
    """Best-effort sidecar write (a full disk must not fail the run)."""
    path = telemetry_path_for(telemetry_dir, run_id)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(dict(payload), sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
    except OSError:
        return None
    return path


def read_telemetry_sidecars(store_dir: str | Path) -> dict[str, dict]:
    """All sidecars of a store, keyed by run id (missing dir = empty)."""
    directory = telemetry_dir_for(store_dir)
    sidecars: dict[str, dict] = {}
    if not directory.is_dir():
        return sidecars
    for path in sorted(directory.glob(f"*{TELEMETRY_SUFFIX}")):
        run_id = path.name[: -len(TELEMETRY_SUFFIX)]
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue  # a torn sidecar only degrades reporting
        if isinstance(data, dict):
            sidecars[run_id] = data
    return sidecars


def _merge_sidecars(sidecars: Mapping[str, dict]) -> dict[str, object]:
    execs = [s.get("exec", {}) for s in sidecars.values()]
    merged: dict[str, object] = {
        "runs": len(sidecars),
        "exec": {
            "wall_clock_s": sum(float(e.get("wall_clock_s", 0.0)) for e in execs),
            "resume_count": sum(int(e.get("resume_count", 0)) for e in execs),
            "restore_wall_s": sum(
                float(e.get("restore_wall_s", 0.0)) for e in execs
            ),
            "events_dispatched": sum(
                int(e.get("events_dispatched", 0)) for e in execs
            ),
        },
        "metrics": merge_hub_dicts(
            s["metrics"] for s in sidecars.values() if "metrics" in s
        ),
    }
    return merged


def aggregate_store(path: str | Path) -> dict[str, object]:
    """Aggregate any result store for ``repro stats``.

    The document names its shape under ``backend`` and carries its
    table rows: ``strategies`` for a JSON campaign store (``json-store``),
    ``windows`` for a replay store or bare columnar root (``columnar``).
    """
    root = Path(path)
    if not root.is_dir():
        raise ConfigError(f"no such campaign store: {root}")
    # Imported here, not at module level: every worker process imports
    # this package, and repro.archive imports the slurm layer, which
    # imports this package back (a cycle).
    from repro.archive.columnar import ColumnarStore
    from repro.archive.replay import COLUMNAR_DIR_NAME

    nested = root / COLUMNAR_DIR_NAME
    if ColumnarStore.is_store(nested):
        return _aggregate_columnar(ColumnarStore(nested), store_dir=root)
    if ColumnarStore.is_store(root):
        return _aggregate_columnar(ColumnarStore(root), store_dir=None)
    return _aggregate_json_store(root)


def _aggregate_columnar(
    store: "ColumnarStore", store_dir: Path | None
) -> dict[str, object]:
    """One row per replay window plus the whole-trace summary.

    *store_dir* (when the columnar root lives inside a replay store)
    adds the chain-level ``stitched.json`` context — strategy, archive
    id — without touching run records.
    """
    from repro.archive.replay import STITCHED_NAME, stitched_summary

    rows: list[dict[str, object]] = []
    if "windows" in store.families():
        for batch in store.iter_batches("windows"):
            for record in batch:
                rows.append({
                    "window": int(record["window"]),
                    "jobs_loaded": int(record["jobs_loaded"]),
                    "jobs_flushed": int(record["jobs_flushed"]),
                    "events": int(record["events_dispatched"]),
                    "passes": int(record["scheduler_passes"]),
                    "boundary_t": float(record["boundary_time"]),
                    "carried_run": int(record["carried_running"]),
                    "carried_queue": int(record["carried_queued"]),
                })
        rows.sort(key=lambda r: r["window"])  # type: ignore[arg-type]
    document: dict[str, object] = {
        "store": str(store_dir or store.root),
        "backend": "columnar",
        "summary": stitched_summary(store.root),
        "windows": rows,
    }
    if store_dir is not None:
        stitched_path = store_dir / STITCHED_NAME
        try:
            stitched = json.loads(stitched_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            stitched = None
        if isinstance(stitched, dict):
            for key in ("archive_id", "chain", "strategy", "num_nodes"):
                if key in stitched:
                    document[key] = stitched[key]
    return document


def _aggregate_json_store(store_dir: Path) -> dict[str, object]:
    """Simulate records grouped per strategy (runs, jobs, mean makespan
    / wait / efficiency), telemetry sidecars folded in where present,
    and quarantine counts — the complete campaign picture.  This is the
    one place a store's sidecars are merged; nothing writes the merge
    back into the store."""
    from repro.campaign.store import ResultStore

    store = ResultStore(store_dir)
    sidecars = read_telemetry_sidecars(store_dir)

    strategies: dict[str, dict] = {}
    experiments = 0
    total_runs = 0
    for run_id in sorted(store.completed_ids()):
        record = store.load(run_id)
        payload = record.get("result")
        if not isinstance(payload, dict):
            continue
        total_runs += 1
        if payload.get("kind") != "simulate":
            experiments += 1
            continue
        summary = payload.get("summary", {})
        if not isinstance(summary, dict):
            summary = {}
        row = strategies.setdefault(
            str(payload.get("strategy")),
            {
                "runs": 0, "jobs": 0, "events": 0,
                "_makespan_h": 0.0, "_wait_h": 0.0, "_comp_eff": 0.0,
                "wall_clock_s": 0.0, "resumes": 0,
            },
        )
        row["runs"] += 1
        row["jobs"] += int(payload.get("jobs", 0))
        row["events"] += int(payload.get("events_dispatched", 0))
        row["_makespan_h"] += float(summary.get("makespan_h", 0.0))
        row["_wait_h"] += float(summary.get("mean_wait_h", 0.0))
        row["_comp_eff"] += float(summary.get("comp_eff", 0.0))
        exec_info = sidecars.get(run_id, {}).get("exec", {})
        row["wall_clock_s"] += float(exec_info.get("wall_clock_s", 0.0))
        row["resumes"] += int(exec_info.get("resume_count", 0))

    rows = []
    for strategy in sorted(strategies):
        row = strategies[strategy]
        runs = row["runs"] or 1
        rows.append({
            "strategy": strategy,
            "runs": row["runs"],
            "jobs": row["jobs"],
            "events": row["events"],
            "makespan_h": row["_makespan_h"] / runs,
            "mean_wait_h": row["_wait_h"] / runs,
            "comp_eff": row["_comp_eff"] / runs,
            "wall_clock_s": row["wall_clock_s"],
            "resumes": row["resumes"],
        })

    quarantined = 0
    quarantine_path = store_dir / "quarantine.json"
    if quarantine_path.is_file():
        try:
            manifest = json.loads(quarantine_path.read_text(encoding="utf-8"))
            quarantined = int(manifest.get("quarantined", 0))
        except (OSError, json.JSONDecodeError, TypeError, ValueError):
            pass

    document: dict[str, object] = {
        "store": str(store_dir),
        "runs": total_runs,
        "experiments": experiments,
        "quarantined": quarantined,
        "strategies": rows,
    }
    if sidecars:
        document["telemetry"] = _merge_sidecars(sidecars)
    document["backend"] = "json-store"
    return document
