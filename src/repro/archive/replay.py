"""Sharded window execution with deterministic boundary stitching.

One archive replay is a *chain* of campaign runs, one per trace
window, executed strictly in window order:

* window 0 builds a fresh manager from the first window's trace and
  runs the simulator ``until`` just below the chain's first boundary
  (the first submit time of window 1 — ties are never split, the
  planner guarantees it);
* window ``k > 0`` takes up the world at the boundary snapshot
  window ``k-1`` wrote, registers its own trace via :meth:`~repro.
  slurm.manager.WorkloadManager.extend` (which deliberately does
  *not* re-kick the periodic backfill chain — its phase must survive
  the boundary), and runs to the next boundary;
* after each segment the manager's terminal jobs are compacted out
  (:meth:`~repro.slurm.manager.WorkloadManager.compact_terminated`)
  and flushed to the columnar store with :meth:`~repro.archive.
  columnar.ColumnarStore.append_once` — idempotent per window, so
  re-executing a window (cache loss, crash recovery) never
  double-counts.  The window's ``jobs`` and ``windows`` appends share
  one :meth:`~repro.archive.columnar.ColumnarStore.batch`, so both
  marks commit in one manifest write.

Every window still writes its boundary snapshot, the crash-recovery
contract.  When window ``k+1`` runs in the process that just ran
window ``k`` it need not read that snapshot back: window ``k`` leaves
``(snapshot path, payload_sha256, manager)`` in a module-level
hand-off slot, and window ``k+1`` uses the live manager when the path
and the snapshot header on disk (``spec_hash`` and payload digest)
match.  Otherwise — a resumed replay, crash recovery, a predecessor
in another process, a snapshot rewritten since — it restores the
snapshot file.  A hand-off is not a resume: ``resume_count`` counts
real restores only.

While later windows remain, ``manager.expect_more_work`` keeps the
periodic backfill chain and failure processes armed across idle gaps
— the states in which every *loaded* job is terminal but a
monolithic run (with all jobs loaded) would keep ticking.

The stitching invariant — tested across every strategy in
``tests/test_archive_replay.py`` — is that the concatenated flushed
records of a sharded replay are **byte-identical** to the accounting
records of one monolithic run over the whole trace: each job
terminates in exactly one segment, segments execute in order, and
the snapshot layer restores the simulation world exactly.

Each window is a content-hashed campaign run (``kind":
"replay_window"``), so the PR-1 runner provides caching, retry,
store locking and progress for free; the *chain id* — the hash of
the params minus the window index — names the boundary snapshots
and columnar idempotence marks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.archive.columnar import (
    JOB_STATE_CODES,
    WINDOWS_DTYPE,
    ColumnarStore,
    job_records_to_array,
)
from repro.archive.ingest import MANIFEST_NAME as ARCHIVE_MANIFEST_NAME
from repro.archive.ingest import Archive, load_archive
from repro.campaign.runner import CampaignResult, CampaignRunner
from repro.campaign.spec import RunSpec, run_id_of
from repro.campaign.store import ResultStore
from repro.errors import ConfigError, SnapshotError
from repro.slurm.config import SchedulerConfig
from repro.slurm.job import JobState
from repro.snapshot import state as snapshot_state
from repro.snapshot.guards import ResourceGuards

if TYPE_CHECKING:  # pragma: no cover
    from repro.slurm.manager import WorkloadManager

#: Subdirectory of a replay store holding the columnar results.
COLUMNAR_DIR_NAME = "columnar"

#: Subdirectory of a replay store holding boundary snapshots.
BOUNDARY_DIR_NAME = "boundaries"

#: Stitched whole-trace summary written after a successful replay.
STITCHED_NAME = "stitched.json"

#: What the last window run in this process left for its successor:
#: ``(boundary snapshot path, its payload_sha256, live manager)``.
#: Module-level because the campaign runner calls each window with
#: its params alone.  Holds at most one manager; every window pops
#: it on entry and :func:`replay_archive` empties it on return.
_handoff: "tuple[Path, str, WorkloadManager] | None" = None

#: The last archive opened by :func:`_open_archive`, keyed on its
#: resolved root and the manifest's ``(st_ino, st_size, st_mtime_ns)``.
_archive_memo: tuple[tuple, Archive] | None = None


def _open_archive(archive_dir: str | Path) -> Archive:
    """:func:`load_archive`, parsing the manifest once per process.

    A re-ingest replaces the manifest atomically (new inode), so the
    key changes and the next call parses the new one.
    """
    global _archive_memo
    root = Path(archive_dir).resolve()
    try:
        stat = (root / ARCHIVE_MANIFEST_NAME).stat()
    except OSError:
        return load_archive(root)  # raises the usual ConfigError
    key = (root, stat.st_ino, stat.st_size, stat.st_mtime_ns)
    if _archive_memo is None or _archive_memo[0] != key:
        _archive_memo = (key, load_archive(root))
    return _archive_memo[1]


def replay_window_params(
    archive_id: str,
    window: int,
    windows: int,
    strategy: str,
    num_nodes: int,
    config: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Content-hashed params for one window of a replay chain."""
    params: dict[str, object] = {
        "kind": "replay_window",
        "archive_id": archive_id,
        "window": int(window),
        "windows": int(windows),
        "strategy": strategy,
        "num_nodes": int(num_nodes),
    }
    if config:
        params["config"] = dict(config)
    return params


def chain_id_of(params: Mapping[str, object]) -> str:
    """Identity of the whole replay chain: the run params minus the
    window index.  Names boundary snapshots and columnar marks.  The
    columnar ``jobs`` and ``windows`` families hold one chain per
    store, so :func:`replay_archive` refuses a store whose marks name
    another chain."""
    reduced = {k: v for k, v in params.items() if k != "window"}
    return run_id_of(reduced)


def boundary_snapshot_path(
    boundary_dir: str | Path, chain: str, window: int
) -> Path:
    """Snapshot restoring the world at the *start* of *window*."""
    return Path(boundary_dir) / f"{chain}-w{window:05d}.snap"


def _run_until_boundary(manager, boundary: float | None):
    """Advance to just below *boundary* (or to completion)."""
    if boundary is None:
        return manager.run()
    # nextafter: dispatch everything strictly before the boundary —
    # the next window's first submit (and anything tied with it)
    # must execute after that window's jobs are registered.
    return manager.run(until=math.nextafter(boundary, -math.inf))


def execute_replay_window(
    params: Mapping[str, object],
    archive_dir: str | None = None,
    columnar_dir: str | None = None,
    boundary_dir: str | None = None,
    telemetry_dir: str | None = None,
) -> dict[str, object]:
    """Execute one window of a replay chain (campaign entry function).

    Module-level and driven by string directories so the campaign
    runner can ``partial`` it and stay picklable.  Returns a
    deterministic payload; everything bulky (per-job records) goes to
    the columnar store, everything nondeterministic (wall clock) to
    the telemetry sidecar.
    """
    global _handoff
    handed, _handoff = _handoff, None
    if params.get("kind") != "replay_window":
        raise ConfigError(f"unknown run kind {params.get('kind')!r}")
    if archive_dir is None or columnar_dir is None or boundary_dir is None:
        raise ConfigError(
            "execute_replay_window needs archive_dir, columnar_dir "
            "and boundary_dir"
        )
    import time as _wallclock

    started = _wallclock.perf_counter()
    archive = _open_archive(archive_dir)
    if archive.archive_id != params["archive_id"]:
        raise ConfigError(
            f"archive at {archive_dir} has id {archive.archive_id}, "
            f"but this chain was planned against {params['archive_id']} "
            f"— the archive was re-ingested; re-plan the replay"
        )
    window = int(params["window"])  # type: ignore[arg-type]
    windows = int(params["windows"])  # type: ignore[arg-type]
    if windows != len(archive):
        raise ConfigError(
            f"chain expects {windows} windows, archive has {len(archive)}"
        )
    strategy = str(params["strategy"])
    num_nodes = int(params["num_nodes"])  # type: ignore[arg-type]
    chain = chain_id_of(params)
    trace = archive.window_trace(window)

    if window == 0:
        from repro.slurm.manager import build_manager

        config_kwargs = dict(params.get("config", {}))  # type: ignore[arg-type]
        config = SchedulerConfig(strategy=strategy, **config_kwargs)
        manager = build_manager(
            trace,
            num_nodes=num_nodes,
            strategy=strategy,
            config=config,
            collect_metrics=False,
        )
        jobs_loaded = len(trace)
    else:
        from repro.slurm.manager import WorkloadManager

        snap_path = boundary_snapshot_path(boundary_dir, chain, window)
        if not snap_path.is_file():
            raise SnapshotError(
                f"boundary snapshot {snap_path} is missing — window "
                f"{window - 1} must complete (uncached) first; clear "
                f"this chain's results from the store to re-run it",
                reason="unreadable",
            )
        # The live manager stands in for the snapshot only if it is
        # exactly what the file on disk holds.
        spec_hash = f"{chain}:{window}"
        header = snapshot_state.read_snapshot_header(snap_path)
        if (
            handed is not None
            and handed[0] == snap_path
            and handed[1] == header.get("payload_sha256")
            and header.get("spec_hash") == spec_hash
        ):
            manager = handed[2]
        else:
            manager = WorkloadManager.restore(
                snap_path, expect_spec_hash=spec_hash
            )
        jobs_loaded = manager.extend(trace)

    boundary = archive.boundary_of(window)
    manager.expect_more_work = window < windows - 1
    _run_until_boundary(manager, boundary)
    flushed = manager.compact_terminated()

    carried_running = sum(
        1 for job in manager.jobs.values() if job.state is JobState.RUNNING
    )
    carried_queued = len(manager.jobs) - carried_running
    boundary_time = float(manager.sim.now) if boundary is None else boundary

    window_row = np.array(
        [(
            window, jobs_loaded, len(flushed),
            int(manager.sim.events_dispatched),
            int(manager.scheduler_passes),
            boundary_time, carried_running, carried_queued,
        )],
        dtype=WINDOWS_DTYPE,
    )
    store = ColumnarStore(columnar_dir)
    with store.batch():
        if flushed:
            store.append_once(
                "jobs", f"{chain}:jobs:{window}", job_records_to_array(flushed)
            )
        store.append_once("windows", f"{chain}:windows:{window}", window_row)

    handoff = None
    if boundary is not None:
        next_path = boundary_snapshot_path(boundary_dir, chain, window + 1)
        written: dict = {}
        snapshot_state.write_snapshot(
            manager, next_path, spec_hash=f"{chain}:{window + 1}",
            header_out=written,
        )
        handoff = (next_path, written["payload_sha256"], manager)

    if telemetry_dir is not None:
        from repro.observability.stats import write_telemetry_sidecar

        write_telemetry_sidecar(
            telemetry_dir,
            run_id_of(dict(params)),
            {
                "run_id": run_id_of(dict(params)),
                "exec": {
                    "wall_clock_s": _wallclock.perf_counter() - started,
                    "resume_count": int(getattr(manager, "resume_count", 0)),
                    "events_dispatched": int(manager.sim.events_dispatched),
                },
            },
        )

    _handoff = handoff
    return {
        "kind": "replay_window",
        "archive_id": archive.archive_id,
        "window": window,
        "windows": windows,
        "strategy": strategy,
        "num_nodes": num_nodes,
        "jobs_loaded": jobs_loaded,
        "jobs_flushed": len(flushed),
        "carried": {"running": carried_running, "queued": carried_queued},
        "boundary_time": boundary_time,
        # Cumulative across the chain so far — monotone per window,
        # which the stitching tests exploit.
        "events_dispatched": int(manager.sim.events_dispatched),
        "scheduler_passes": int(manager.scheduler_passes),
    }


@dataclass
class ReplayOutcome:
    """Result of :func:`replay_archive`."""

    chain: str
    campaign: CampaignResult
    columnar: Path
    stitched: dict[str, object] | None

    @property
    def ok(self) -> bool:
        return self.campaign.ok


def replay_archive(
    archive_dir: str | Path,
    store_dir: str | Path,
    strategy: str = "easy_backfill",
    num_nodes: int = 128,
    config: Mapping[str, object] | None = None,
    guards: ResourceGuards | None = None,
    progress: Callable | None = None,
    telemetry_dir: str | Path | None = None,
    install_signal_handlers: bool = False,
) -> ReplayOutcome:
    """Replay a whole ingested archive, window by window.

    Windows execute serially in order (window ``k+1`` continues from
    the snapshot window ``k`` wrote — there is no window parallelism to
    exploit *within* one chain; run different strategies as separate
    chains for that).  Completed windows are cached in the campaign
    store and their columnar appends are idempotent, so an
    interrupted replay re-run picks up where it stopped.  On full
    success the boundary snapshots are deleted and a stitched
    whole-trace summary is written to ``<store>/stitched.json``.
    """
    global _handoff
    archive = _open_archive(archive_dir)
    store_dir = Path(store_dir)
    columnar_dir = store_dir / COLUMNAR_DIR_NAME
    boundary_dir = store_dir / BOUNDARY_DIR_NAME
    runs = [
        RunSpec.from_params(
            replay_window_params(
                archive.archive_id,
                window=k,
                windows=len(archive),
                strategy=strategy,
                num_nodes=num_nodes,
                config=config,
            )
        )
        for k in range(len(archive))
    ]
    chain = chain_id_of(runs[0].params)
    if ColumnarStore.is_store(columnar_dir):
        others = {
            key.split(":", 1)[0] for key in ColumnarStore(columnar_dir).marks()
        } - {chain}
        if others:
            raise ConfigError(
                f"replay store {store_dir} already holds rows of another "
                f"replay chain ({', '.join(sorted(others))}); its jobs and "
                f"windows families hold one chain, so {strategy} on "
                f"{num_nodes} nodes needs a fresh --store (or replay-trace "
                f"--strategies, which gives each chain its own sub-store)"
            )
    entry = partial(
        execute_replay_window,
        archive_dir=str(archive_dir),
        columnar_dir=str(columnar_dir),
        boundary_dir=str(boundary_dir),
        telemetry_dir=(
            str(telemetry_dir) if telemetry_dir is not None else None
        ),
    )
    runner = CampaignRunner(
        store=ResultStore(store_dir),
        workers=1,  # chain order is a correctness requirement
        retries=0,  # window state is consumed; a blind retry cannot help
        entry=entry,
        guards=guards,
        progress=progress,
        install_signal_handlers=install_signal_handlers,
    )
    try:
        campaign = runner.run(runs)
    finally:
        _handoff = None
    stitched: dict[str, object] | None = None
    if campaign.ok:
        stitched = stitched_summary(columnar_dir)
        stitched["archive_id"] = archive.archive_id
        stitched["chain"] = chain
        stitched["strategy"] = strategy
        stitched["num_nodes"] = num_nodes
        import json

        from repro.faultinject import failpoint

        failpoint("stitched.write")
        (store_dir / STITCHED_NAME).write_text(
            json.dumps(stitched, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        for snap in sorted(boundary_dir.glob(f"{chain}-w*.snap")):
            snap.unlink(missing_ok=True)
    return ReplayOutcome(
        chain=chain,
        campaign=campaign,
        columnar=columnar_dir,
        stitched=stitched,
    )


def stitched_summary(
    columnar_dir: str | Path, tau: float = 10.0
) -> dict[str, object]:
    """Whole-trace metrics streamed from the columnar ``jobs`` family.

    Single-pass, bounded memory: every statistic is an accumulator
    over mmapped batches — no per-job Python objects, no JSON.
    """
    store = ColumnarStore(columnar_dir)
    total = 0
    by_state = {name: 0 for name in JOB_STATE_CODES}
    min_submit = math.inf
    max_end = -math.inf
    wait_sum = 0.0
    slowdown_sum = 0.0
    node_seconds = 0.0
    shared = 0
    for batch in store.iter_batches("jobs"):
        total += len(batch)
        states = batch["state"]
        for name, code in JOB_STATE_CODES.items():
            by_state[name] += int(np.count_nonzero(states == code))
        min_submit = min(min_submit, float(batch["submit_time"].min()))
        max_end = max(max_end, float(batch["end_time"].max()))
        wait = batch["start_time"] - batch["submit_time"]
        wait_sum += float(wait.sum())
        run = batch["end_time"] - batch["start_time"]
        slowdown_sum += float(
            np.maximum(1.0, (wait + run) / np.maximum(run, tau)).sum()
        )
        node_seconds += float((batch["num_nodes"] * run).sum())
        shared += int(np.count_nonzero(batch["was_shared"]))
    return {
        "jobs": total,
        "completed": by_state["COMPLETED"],
        "timeouts": by_state["TIMEOUT"],
        "cancelled": by_state["CANCELLED"],
        "failed": by_state["FAILED"],
        "makespan_s": (max_end - min_submit) if total else 0.0,
        "mean_wait_s": (wait_sum / total) if total else 0.0,
        "mean_bounded_slowdown": (slowdown_sum / total) if total else 0.0,
        "total_node_seconds": node_seconds,
        "shared_fraction": (shared / total) if total else 0.0,
        "windows": store.rows("windows"),
    }


def monolithic_jobs_array(
    archive: Archive,
    strategy: str,
    num_nodes: int,
    config: Mapping[str, object] | None = None,
) -> np.ndarray:
    """Reference for the stitching tests: run the whole archive as one
    monolithic simulation and pack its accounting records exactly as
    the sharded path packs its flushed windows."""
    from repro.slurm.manager import build_manager
    from repro.workload.trace import WorkloadTrace

    specs = []
    for k in range(len(archive)):
        specs.extend(archive.window_specs(k))
    config_kwargs = dict(config or {})
    manager = build_manager(
        WorkloadTrace(specs, name=f"{archive.name}:monolithic"),
        num_nodes=num_nodes,
        strategy=strategy,
        config=SchedulerConfig(strategy=strategy, **config_kwargs),
        collect_metrics=False,
    )
    result = manager.run()
    return job_records_to_array(list(result.accounting))
