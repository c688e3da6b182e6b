"""Sharded window execution with deterministic boundary stitching.

One archive replay is a *chain* of windows, which
:func:`replay_archive` runs as a plain loop, strictly in window order:

* window 0 builds a fresh manager from the first window's trace and
  runs the simulator ``until`` just below the chain's first boundary
  (the first submit time of window 1 — ties are never split, the
  planner guarantees it);
* window ``k > 0`` continues the manager window ``k-1`` returned,
  registers its own trace via :meth:`~repro.slurm.manager.
  WorkloadManager.extend` (which deliberately does *not* re-kick the
  periodic backfill chain — its phase must survive the boundary), and
  runs to the next boundary.  Only the first window of a resumed call
  has no predecessor in memory; it restores a boundary snapshot;
* after each segment the manager's terminal jobs are compacted out
  (:meth:`~repro.slurm.manager.WorkloadManager.compact_terminated`),
  the boundary snapshot for window ``k+1`` is written when ``k+1`` is
  a multiple of :data:`SNAPSHOT_EVERY`, and the window's ``jobs`` and
  ``windows`` rows are staged in the columnar store.

The windows between two boundary snapshots form a *snapshot group*,
and :func:`replay_archive` keeps one :meth:`~repro.archive.columnar.
ColumnarStore.batch` open per group.  The window that writes the
group-closing snapshot (or the chain's last window) commits the group
after that snapshot: one write per column family and one manifest
write, carrying every idempotence mark of the group.  A window is
reported completed only once its group has committed.

The columnar ``{chain}:windows:{k}`` mark is the only record of
progress: a call continues at the first window without one.  A
graceful stop — a suspend request or a guard trip between windows —
writes the snapshot of the live manager for the next window and then
commits the windows already run, so its resume re-derives nothing.
So does a failing window, for the windows of its group run before it.
The resume starts from the newest snapshot at or before the first
uncommitted window (or from a fresh window 0) and re-runs the
committed windows after it, checking that each re-derived ``jobs``
and ``windows`` row equals the committed row byte for byte: recovery
is a determinism check, and a divergence fails the chain without
appending anything.  A crash loses at most the one uncommitted
group, whose start snapshot already exists, so its resume re-derives
nothing; re-derived windows come from a partial group committed
before a failed window, a deleted snapshot, or a store written one
commit per window.  :meth:`~repro.archive.columnar.ColumnarStore.
append_once` keeps a re-run of an uncommitted window from
double-counting.

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

The *chain id* — the content hash of a window's params minus the
window index — names the boundary snapshots and the columnar marks.
"""

from __future__ import annotations

import json
import math
import os
import time as _wallclock
from dataclasses import dataclass
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
from repro.campaign.progress import (
    CACHED,
    COMPLETED,
    FAILED,
    GUARD,
    STARTED,
    ProgressTracker,
)
from repro.campaign.runner import CampaignResult, RunFailure
from repro.campaign.spec import run_id_of
from repro.campaign.store import StoreLock
from repro.errors import ConfigError, SimulationError, SnapshotError
from repro.slurm.config import SchedulerConfig
from repro.slurm.job import JobState
from repro.snapshot import state as snapshot_state
from repro.snapshot import suspend as _suspend
from repro.snapshot.guards import ResourceGuards
from repro.storage.durable import write_atomic

if TYPE_CHECKING:  # pragma: no cover
    from repro.slurm.manager import WorkloadManager

#: Subdirectory of a replay store holding the columnar results.
COLUMNAR_DIR_NAME = "columnar"

#: Subdirectory of a replay store holding boundary snapshots.
BOUNDARY_DIR_NAME = "boundaries"

#: Stitched whole-trace summary written after a successful replay.
STITCHED_NAME = "stitched.json"

#: A window writes the boundary snapshot of its successor only when
#: the successor's index is a multiple of this.
SNAPSHOT_EVERY = 8

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
    archive_dir: str | Path,
    columnar_dir: str | Path,
    boundary_dir: str | Path,
    telemetry_dir: str | Path | None = None,
    manager: "WorkloadManager | None" = None,
    *,
    store: ColumnarStore | None = None,
    verify: bool = False,
) -> "WorkloadManager":
    """Execute one window of a replay chain; returns the live manager.

    *manager* is what the previous window returned.  Without it,
    window 0 builds a fresh manager and a later window restores its
    boundary snapshot.  The window writes the next boundary snapshot
    when that window's index is a multiple of :data:`SNAPSHOT_EVERY`,
    then appends its ``jobs`` and ``windows`` rows in one batch of
    *store* (opened on *columnar_dir* when None): inside a batch the
    caller holds open they commit with it, otherwise the window
    commits them itself.  Everything nondeterministic (wall clock)
    goes to the telemetry sidecar.

    With *verify* the window is already committed: it writes no
    snapshot, no rows and no sidecar, and raises
    :class:`~repro.errors.SimulationError` unless the rows it
    re-derives equal the committed ones byte for byte.
    """
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
    chain = chain_id_of(params)
    trace = archive.window_trace(window)

    if window == 0:
        from repro.slurm.manager import build_manager

        config_kwargs = dict(params.get("config", {}))  # type: ignore[arg-type]
        manager = build_manager(
            trace,
            num_nodes=int(params["num_nodes"]),  # type: ignore[arg-type]
            strategy=strategy,
            config=SchedulerConfig(strategy=strategy, **config_kwargs),
            collect_metrics=False,
        )
        jobs_loaded = len(trace)
    else:
        if manager is None:
            from repro.slurm.manager import WorkloadManager

            snap_path = boundary_snapshot_path(boundary_dir, chain, window)
            if not snap_path.is_file():
                raise SnapshotError(
                    f"boundary snapshot {snap_path} is missing, so window "
                    f"{window} cannot start from it; replay_archive "
                    f"resumes from the newest snapshot before it",
                    reason="unreadable",
                )
            manager = WorkloadManager.restore(
                snap_path, expect_spec_hash=f"{chain}:{window}"
            )
        jobs_loaded = manager.extend(trace)

    boundary = archive.boundary_of(window)
    manager.expect_more_work = window < windows - 1
    _run_until_boundary(manager, boundary)
    flushed = manager.compact_terminated()

    carried_running = sum(
        1 for job in manager.jobs.values() if job.state is JobState.RUNNING
    )
    window_row = np.array(
        [(
            window, jobs_loaded, len(flushed),
            int(manager.sim.events_dispatched),
            int(manager.scheduler_passes),
            float(manager.sim.now) if boundary is None else boundary,
            carried_running, len(manager.jobs) - carried_running,
        )],
        dtype=WINDOWS_DTYPE,
    )
    jobs_rows = job_records_to_array(flushed) if flushed else None
    if store is None:
        store = ColumnarStore(columnar_dir)
    if verify:
        _check_committed(store, chain, window, "windows", window_row)
        _check_committed(store, chain, window, "jobs", jobs_rows)
        return manager
    if boundary is not None and (window + 1) % SNAPSHOT_EVERY == 0:
        snapshot_state.write_snapshot(
            manager,
            boundary_snapshot_path(boundary_dir, chain, window + 1),
            spec_hash=f"{chain}:{window + 1}",
        )
    with store.batch():
        if jobs_rows is not None:
            store.append_once("jobs", f"{chain}:jobs:{window}", jobs_rows)
        store.append_once("windows", f"{chain}:windows:{window}", window_row)

    if telemetry_dir is not None:
        from repro.observability.stats import write_telemetry_sidecar

        run_id = run_id_of(dict(params))
        write_telemetry_sidecar(
            telemetry_dir,
            run_id,
            {
                "run_id": run_id,
                "exec": {
                    "wall_clock_s": _wallclock.perf_counter() - started,
                    "resume_count": int(getattr(manager, "resume_count", 0)),
                    "events_dispatched": int(manager.sim.events_dispatched),
                },
            },
        )
    return manager


def _check_committed(
    store: ColumnarStore,
    chain: str,
    window: int,
    family: str,
    rows: np.ndarray | None,
) -> None:
    """Raise unless *rows* (None: no rows) are exactly what *window*
    committed to *family*."""
    start = store.mark_row(f"{chain}:{family}:{window}")
    if rows is None or start is None:
        same = rows is None and start is None
    else:
        same = store.read(family, start, len(rows)).tobytes() == rows.tobytes()
    if not same:
        raise SimulationError(
            f"window {window} re-derived {family} rows that differ from "
            f"its committed {family} rows; the simulator or the store "
            f"changed since they were written, so nothing is appended"
        )


def _resume_window(boundary_dir: Path, chain: str, first: int) -> int:
    """Where a call resuming at window *first* starts: the newest
    boundary snapshot at or before it, else window 0."""
    for k in range(first, 0, -1):
        if boundary_snapshot_path(boundary_dir, chain, k).is_file():
            return k
    return 0


def _stop_snapshot(
    manager: "WorkloadManager | None",
    boundary_dir: Path,
    chain: str,
    window: int,
) -> None:
    """On a graceful stop before *window*, snapshot the live manager
    for it unless that snapshot exists, so the resume re-derives
    nothing."""
    if manager is None:
        return
    path = boundary_snapshot_path(boundary_dir, chain, window)
    if not path.is_file():
        snapshot_state.write_snapshot(
            manager, path, spec_hash=f"{chain}:{window}"
        )


def _guards_tripped(guards: ResourceGuards, tracker: ProgressTracker) -> bool:
    """Poll *guards* on this process, reporting each trip."""
    trips = guards.check((os.getpid(),))
    for trip in trips or ():
        tracker.emit(GUARD, run_id="", label=trip.kind, error=trip.message)
    return bool(trips)


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

    Windows execute serially in order, each handing its live manager
    to the next (window ``k+1`` continues where window ``k`` stopped —
    there is no window parallelism to exploit *within* one chain; run
    different strategies as separate chains for that).  The call holds
    the store lock, opens the columnar store once and commits it once
    per snapshot group.  It continues at the first window without a
    ``windows`` mark: from the newest boundary snapshot at or before
    it (or a fresh window 0) it re-runs the committed windows in
    between, checking their rows against the committed ones, and
    counts every committed window as cached, so an interrupted replay
    re-run picks up where it stopped.  It stops early at the first
    failing window or group commit (later windows cannot run without
    it), at a suspend request (checked between windows), or when
    *guards* trip on this process after a window; the two graceful
    stops snapshot the live manager for the next window, and every
    stop commits the windows its group has run.
    On full success the boundary snapshots are deleted and a stitched
    whole-trace summary is written to ``<store>/stitched.json``.
    """
    started = _wallclock.monotonic()
    archive = _open_archive(archive_dir)
    store_dir = Path(store_dir)
    columnar_dir = store_dir / COLUMNAR_DIR_NAME
    boundary_dir = store_dir / BOUNDARY_DIR_NAME
    window_params = [
        replay_window_params(
            archive.archive_id,
            window=k,
            windows=len(archive),
            strategy=strategy,
            num_nodes=num_nodes,
            config=config,
        )
        for k in range(len(archive))
    ]
    run_ids = [run_id_of(params) for params in window_params]
    chain = chain_id_of(window_params[0])
    campaign = CampaignResult(order=run_ids, results={})
    tracker = ProgressTracker(total=len(window_params), sink=progress)
    stitched: dict[str, object] | None = None
    with StoreLock(store_dir):
        store = ColumnarStore(columnar_dir)
        marks = set(store.marks())
        others = {key.split(":", 1)[0] for key in marks} - {chain}
        if others:
            raise ConfigError(
                f"replay store {store_dir} already holds rows of another "
                f"replay chain ({', '.join(sorted(others))}); its jobs and "
                f"windows families hold one chain, so {strategy} on "
                f"{num_nodes} nodes needs a fresh --store (or replay-trace "
                f"--strategies, which gives each chain its own sub-store)"
            )
        first = next(
            (k for k in range(len(window_params))
             if f"{chain}:windows:{k}" not in marks),
            len(window_params),
        )
        resume = (
            _resume_window(boundary_dir, chain, first)
            if first < len(window_params)
            else first
        )
        for k in range(resume):
            tracker.emit(CACHED, run_ids[k], f"window {k}")
        previous_handlers = (
            _suspend.install_signal_handlers()
            if install_signal_handlers
            else None
        )
        try:
            manager = None
            k, count = resume, len(window_params)
            while k < count and not (campaign.interrupted or campaign.failures):
                # One batch per snapshot group: the windows up to the
                # next multiple of SNAPSHOT_EVERY commit together.
                end = min(count, (k // SNAPSHOT_EVERY + 1) * SNAPSHOT_EVERY)
                ran: list[int] = []
                failures: list[tuple[int, Exception]] = []
                try:
                    with store.batch():
                        while k < end and not (campaign.interrupted or failures):
                            verify = k < first
                            if not verify and _suspend.suspend_requested():
                                _suspend.reset()
                                campaign.interrupted = True
                                _stop_snapshot(manager, boundary_dir, chain, k)
                                break
                            if not verify:
                                tracker.emit(STARTED, run_ids[k], f"window {k}")
                            try:
                                manager = execute_replay_window(
                                    window_params[k], archive_dir, columnar_dir,
                                    boundary_dir, telemetry_dir, manager=manager,
                                    store=store, verify=verify,
                                )
                            except Exception as exc:  # noqa: BLE001 - ends the chain
                                failures.append((k, exc))
                                break
                            if verify:
                                tracker.emit(CACHED, run_ids[k], f"window {k}")
                            else:
                                ran.append(k)
                            k += 1
                            if (
                                not verify
                                and guards is not None
                                and k < count
                                and _guards_tripped(guards, tracker)
                            ):
                                campaign.interrupted = True
                                _stop_snapshot(manager, boundary_dir, chain, k)
                except Exception as exc:  # noqa: BLE001 - ends the chain
                    if not ran:
                        raise
                    # The group did not commit: none of it is visible,
                    # and the failure falls on its closing window.
                    failures.insert(0, (ran[-1], exc))
                    ran.clear()
                for j in ran:
                    tracker.emit(COMPLETED, run_ids[j], f"window {j}")
                for j, exc in failures:
                    error = f"{type(exc).__name__}: {exc}"
                    tracker.emit(FAILED, run_ids[j], f"window {j}", error=error)
                    campaign.failures.append(
                        RunFailure(run_ids[j], f"window {j}", 1, error)
                    )
        finally:
            _suspend.restore_signal_handlers(previous_handlers)
        # Results are read back from the marks' rows, cached or not.
        if store.rows("windows"):
            for row in store.read("windows"):
                k = int(row["window"])
                campaign.results[run_ids[k]] = {
                    "run_id": run_ids[k],
                    "params": window_params[k],
                    "result": {
                        name: row[name].item() for name in WINDOWS_DTYPE.names
                    },
                }
        if campaign.ok:
            stitched = stitched_summary(columnar_dir)
            stitched["archive_id"] = archive.archive_id
            stitched["chain"] = chain
            stitched["strategy"] = strategy
            stitched["num_nodes"] = num_nodes
            document = json.dumps(stitched, sort_keys=True, indent=1) + "\n"
            write_atomic(
                store_dir / STITCHED_NAME, document.encode("utf-8"),
                write_fp="stitched.write",
            )
            for snap in sorted(boundary_dir.glob(f"{chain}-w*.snap")):
                snap.unlink(missing_ok=True)
    campaign.completed = tracker.completed
    campaign.cached = tracker.cached
    campaign.elapsed_s = _wallclock.monotonic() - started
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
