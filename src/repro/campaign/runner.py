"""The campaign executor: process-pool fan-out with a serial twin.

Both execution modes funnel every run through the same picklable
entry function (:func:`repro.slurm.entry.execute_run` by default), so
a campaign executed with ``workers=8`` produces byte-identical result
payloads to the same campaign executed serially — the simulator's
deterministic RNG streams make that a testable guarantee, and the
test suite tests it.

Failure semantics:

* an entry-function exception is a failed *attempt*; attempts are
  bounded (``retries`` extra tries) with exponential backoff;
* a hard worker crash (``BrokenProcessPool``) costs every in-flight
  run one attempt — the culprit cannot be attributed — and the pool
  is rebuilt;
* a run exceeding ``timeout`` seconds is abandoned, costs one
  attempt, and forces a pool rebuild (a running task cannot be
  killed otherwise); collateral in-flight runs are re-queued without
  an attempt penalty;
* a *poison run* — one that crashes its worker or trips a watchdog
  ``quarantine_after`` times — is isolated immediately (even with
  attempts remaining): it lands in :attr:`CampaignResult.quarantined`
  with its replay bundle and the rest of the campaign completes.

Completed runs are persisted through :class:`~repro.campaign.store.
ResultStore` as they finish, so an interrupted campaign resumes from
its last completed run.  Failed and quarantined runs are *not*
persisted: a re-run retries exactly the missing and failed work.

Preemption semantics (armed by ``snapshot_dir``, see
:mod:`repro.snapshot`):

* SIGTERM/SIGINT requests a *graceful shutdown*: in-flight workers
  checkpoint their runs at the next event boundary, each parked run
  lands in :attr:`CampaignResult.suspended` with its snapshot path,
  and queued runs are simply left for ``repro resume``;
* a worker whose RSS exceeds the guard budget is *shed*: SIGTERMed
  individually, its run snapshots, re-queues with no attempt penalty,
  and later resumes from the snapshot in a fresh-memory slot;
* a disk watermark trip pauses dispatch (backpressure) until free
  space recovers, without abandoning in-flight work.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

# Loaded here so that pool children, which fork from this process,
# inherit them instead of each importing them again on every campaign
# call: numpy loads both only on first use (``np.random`` for workload
# and failure generators, ``numpy.ma`` under ``np.median``).
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from repro.campaign.progress import (
    CACHED,
    COMPLETED,
    FAILED,
    GUARD,
    QUARANTINED,
    RETRY,
    STARTED,
    SUSPENDED,
    ProgressEvent,
    ProgressTracker,
)
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore, result_record
from repro.diagnostics.bundle import bundle_path_for
from repro.diagnostics.quarantine import QuarantinedRun
from repro.errors import ConfigError, SuspendRequested, WatchdogError
from repro.snapshot import suspend as _suspend
from repro.snapshot.guards import ResourceGuards
from repro.snapshot.state import snapshot_path_for

Entry = Callable[[Mapping[str, object]], dict[str, object]]

#: Seconds a graceful shutdown waits for in-flight workers to finish
#: or checkpoint their runs before abandoning them.
SUSPEND_GRACE_S = 30.0


def _worker_lifeline(parent_pid: int) -> None:
    """Pool-worker initializer: die when the campaign parent does.

    A hard-killed parent never shuts its pool down, and under the
    ``fork`` start method every worker inherits the call-queue pipe's
    *write* end too — so orphaned workers block on the queue forever
    while holding every inherited descriptor, including the store's
    advisory flock.  Linux delivers SIGTERM on parent death via
    ``PR_SET_PDEATHSIG``; a daemon watchdog thread polling the parent
    pid covers other platforms and the window before ``prctl`` runs.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, int(signal.SIGTERM), 0, 0, 0)  # PR_SET_PDEATHSIG
    except Exception:  # pragma: no cover - non-Linux best effort
        pass
    import threading

    def _watch() -> None:
        while True:
            if os.getppid() != parent_pid:
                os._exit(1)
            time.sleep(1.0)

    threading.Thread(
        target=_watch, daemon=True, name="parent-lifeline"
    ).start()
    if os.getppid() != parent_pid:  # parent died before we got here
        os._exit(1)


def _make_pool(workers: int) -> ProcessPoolExecutor:
    """Worker pool whose processes exit when this process dies."""
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_worker_lifeline,
        initargs=(os.getpid(),),
    )


@dataclass(frozen=True)
class RunFailure:
    """A run whose attempts were exhausted."""

    run_id: str
    label: str
    attempts: int
    error: str


@dataclass(frozen=True)
class SuspendedRun:
    """A run parked mid-flight by a graceful shutdown.

    ``snapshot`` is the on-disk state file a resume continues from;
    ``None`` means the run restarts from scratch (still correct —
    just slower — because runs are deterministic).
    """

    run_id: str
    label: str
    snapshot: str | None = None


@dataclass
class CampaignResult:
    """Outcome of one campaign execution."""

    order: list[str]
    results: dict[str, dict[str, object]]
    failures: list[RunFailure] = field(default_factory=list)
    quarantined: list[QuarantinedRun] = field(default_factory=list)
    suspended: list[SuspendedRun] = field(default_factory=list)
    completed: int = 0
    cached: int = 0
    elapsed_s: float = 0.0
    #: True when a graceful shutdown cut the campaign short — even if
    #: no run was mid-flight (e.g. everything left was still queued).
    interrupted: bool = False

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return (
            not self.failures
            and not self.quarantined
            and not self.interrupted
            and not self.suspended
        )

    def records(self) -> list[dict[str, object]]:
        """Successful result records, in campaign order."""
        return [self.results[rid] for rid in self.order if rid in self.results]

    def payloads(self) -> list[dict[str, object] | None]:
        """Entry payload per run in campaign order; None where failed."""
        out = []
        for rid in self.order:
            record = self.results.get(rid)
            out.append(record["result"] if record else None)  # type: ignore[index]
        return out


class CampaignRunner:
    """Executes the runs of a campaign with caching, retry, recovery.

    Parameters
    ----------
    store:
        Artifact store for caching/resume; ``None`` keeps results only
        in memory (every run executes).  :meth:`run` holds the store's
        advisory lock throughout, so a second campaign on the same
        store fails fast.
    workers:
        Process count; ``1`` executes serially in-process (the
        bit-identical fallback).  Per-run ``timeout`` requires
        ``workers > 1`` — a cooperating process can be abandoned, the
        calling thread cannot.
    timeout:
        Per-run wall-clock budget in seconds (parallel mode only).
    retries:
        Extra attempts after a failed one (0 = fail fast).
    backoff:
        Base seconds of the exponential retry backoff
        (``backoff * 2**(attempt-1)``).
    entry:
        The run entry function; must be picklable for ``workers > 1``.
    progress:
        Optional sink receiving every :class:`ProgressEvent`.
    quarantine_after:
        Poison incidents (worker crashes, timeouts, watchdog trips) a
        single run may cause before it is quarantined instead of
        retried; ``None`` disables poison isolation entirely.
    bundle_dir:
        Directory where workers drop replay bundles for crashing runs
        (see :func:`repro.slurm.entry.execute_run`); ``None`` disables
        bundle capture.  Only applies to the default entry function.
    snapshot_dir:
        Directory for per-run state snapshots; arms preemption-safe
        execution (workers poll for suspension and checkpoint their
        runs).  ``None`` disables snapshotting — SIGTERM then kills the
        campaign the old-fashioned way.  Only applies to the default
        entry function.
    snapshot_every:
        Periodic snapshot trigger forwarded to workers: seconds
        (``"60"``, ``"2.5s"``) or an event count (``"5000e"``);
        ``None``/``"0"`` means only suspension writes snapshots.
    guards:
        Optional :class:`~repro.snapshot.guards.ResourceGuards`
        polled from the dispatch loop.
    install_signal_handlers:
        Install SIGTERM/SIGINT → graceful-shutdown handlers for the
        duration of :meth:`run` (the CLI enables this; library callers
        usually trigger suspension programmatically).
    telemetry_dir:
        Directory for per-run telemetry sidecar files; arms the
        telemetry subsystem in the workers (result payloads stay
        byte-identical); ``repro stats`` merges them.  Only applies to
        the default entry function.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        workers: int = 1,
        timeout: float | None = None,
        retries: int = 2,
        backoff: float = 0.5,
        entry: Entry | None = None,
        progress: Callable[[ProgressEvent], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        quarantine_after: int | None = 2,
        bundle_dir: str | Path | None = None,
        snapshot_dir: str | Path | None = None,
        snapshot_every: str | None = None,
        guards: ResourceGuards | None = None,
        install_signal_handlers: bool = False,
        kill: Callable[[int, int], None] = os.kill,
        telemetry_dir: str | Path | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        if timeout is not None and timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {timeout}")
        if backoff < 0:
            raise ConfigError(f"backoff must be >= 0, got {backoff}")
        if quarantine_after is not None and quarantine_after < 1:
            raise ConfigError(
                f"quarantine_after must be >= 1 or None, got {quarantine_after}"
            )
        self.store = store
        self.workers = workers
        self.timeout = timeout
        self.max_attempts = retries + 1
        self.backoff = backoff
        self.quarantine_after = quarantine_after
        self.bundle_dir = Path(bundle_dir) if bundle_dir is not None else None
        self.snapshot_dir = (
            Path(snapshot_dir) if snapshot_dir is not None else None
        )
        self.snapshot_every = snapshot_every
        self.guards = guards
        self.install_signal_handlers = install_signal_handlers
        self.telemetry_dir = (
            Path(telemetry_dir) if telemetry_dir is not None else None
        )
        from repro.slurm.entry import _default_entry

        self.entry = (
            entry
            if entry is not None
            else _default_entry(
                self.bundle_dir,
                self.snapshot_dir,
                self.snapshot_every,
                self.telemetry_dir,
            )
        )
        self.progress = progress
        self._clock = clock
        self._sleep = sleep
        self._kill = kill
        #: Poison incidents per run_id, reset per campaign execution.
        self._poison_counts: dict[str, int] = {}
        #: Worker pids already SIGTERMed by the RSS guard this cycle.
        self._shed_pids: set[int] = set()
        #: First-dispatch timestamp per run_id (quarantine provenance).
        self._run_started: dict[str, float] = {}
        #: Snapshot-resume re-dispatches per run_id (quarantine provenance).
        self._resume_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def run(self, runs: Sequence[RunSpec]) -> CampaignResult:
        """Execute *runs*, skipping any already present in the store."""
        started = self._clock()
        self._poison_counts = {}
        self._shed_pids = set()
        self._run_started = {}
        self._resume_counts = {}
        if self.snapshot_dir is not None:
            self.snapshot_dir.mkdir(parents=True, exist_ok=True)
        tracker = ProgressTracker(
            total=len(runs), clock=self._clock, sink=self.progress
        )
        result = CampaignResult(order=[r.run_id for r in runs], results={})
        lock = self.store.lock() if self.store is not None else None
        if lock is not None:
            lock.acquire()
        previous_handlers = (
            _suspend.install_signal_handlers()
            if self.install_signal_handlers
            else None
        )
        try:
            pending: list[RunSpec] = []
            for run in runs:
                if self.store is not None and self.store.has(run.run_id):
                    result.results[run.run_id] = self.store.load(run.run_id)
                    tracker.emit(CACHED, run.run_id, run.label)
                else:
                    pending.append(run)
            if pending:
                if self.workers == 1:
                    self._run_serial(pending, tracker, result)
                else:
                    self._run_parallel(pending, tracker, result)
        finally:
            if previous_handlers is not None:
                _suspend.restore_signal_handlers(previous_handlers)
            if lock is not None:
                lock.release()
        result.completed = tracker.completed
        result.cached = tracker.cached
        result.elapsed_s = self._clock() - started
        return result

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def _record(
        self, run: RunSpec, payload: dict[str, object], attempts: int
    ) -> dict[str, object]:
        record = result_record(run, payload, attempts)
        if self.store is not None:
            record = self.store.save(run.run_id, record)
        return record

    def _backoff_delay(self, attempt: int) -> float:
        return self.backoff * (2.0 ** (attempt - 1))

    def _poison_exhausted(self, run_id: str) -> bool:
        """Count one poison incident; True when the run must be isolated."""
        if self.quarantine_after is None:
            return False
        count = self._poison_counts.get(run_id, 0) + 1
        self._poison_counts[run_id] = count
        return count >= self.quarantine_after

    def _quarantine(
        self,
        run: RunSpec,
        error: str,
        tracker: ProgressTracker,
        result: CampaignResult,
    ) -> None:
        bundle: str | None = None
        if self.bundle_dir is not None:
            candidate = bundle_path_for(self.bundle_dir, run.run_id)
            if candidate.is_file():
                bundle = str(candidate)
        snapshot: str | None = None
        if self.snapshot_dir is not None:
            candidate = snapshot_path_for(self.snapshot_dir, run.run_id)
            if candidate.is_file():
                snapshot = str(candidate)
        started = self._run_started.get(run.run_id)
        result.quarantined.append(
            QuarantinedRun(
                run_id=run.run_id,
                label=run.label,
                incidents=self._poison_counts.get(run.run_id, 0),
                error=error,
                params=dict(run.params),
                bundle=bundle,
                elapsed_s=(
                    self._clock() - started if started is not None else 0.0
                ),
                resumes=self._resume_counts.get(run.run_id, 0),
                snapshot=snapshot,
            )
        )
        tracker.emit(
            QUARANTINED, run.run_id, run.label,
            attempt=self._poison_counts.get(run.run_id, 0), error=error,
        )

    # ------------------------------------------------------------------
    # Suspension and guard bookkeeping
    # ------------------------------------------------------------------
    def _park(
        self,
        run: RunSpec,
        tracker: ProgressTracker,
        result: CampaignResult,
        snapshot: str | None = None,
        note: str | None = None,
    ) -> None:
        """Record *run* as suspended (shutdown path)."""
        if snapshot is None and self.snapshot_dir is not None:
            candidate = snapshot_path_for(self.snapshot_dir, run.run_id)
            if candidate.is_file():
                snapshot = str(candidate)  # a periodic snapshot exists
        result.suspended.append(SuspendedRun(run.run_id, run.label, snapshot))
        tracker.emit(SUSPENDED, run.run_id, run.label, error=note)

    def _dispatch_paused(
        self, tracker: ProgressTracker, pids: Sequence[int], paused: bool
    ) -> bool:
        """Poll the resource guards; returns the new pause state.

        Disk trips pause dispatch (backpressure); RSS trips SIGTERM the
        offending worker so its run sheds — snapshots, re-queues and
        later resumes in a fresh-memory slot.  Every trip surfaces as a
        ``guard`` progress event.
        """
        if self.guards is None or not self.guards.armed:
            return False
        trips = self.guards.check(pids)
        if trips is None:
            return paused  # rate-limited: keep the previous state
        for trip in trips:
            tracker.emit(GUARD, run_id="", label=trip.kind, error=trip.message)
            if trip.kind == "rss" and trip.pid is not None:
                if trip.pid in self._shed_pids:
                    continue  # already asked; escalating would abort it
                try:
                    self._kill(trip.pid, signal.SIGTERM)
                except (OSError, ProcessLookupError):
                    continue  # worker already gone; pool layer handles it
                self._shed_pids.add(trip.pid)
        was_paused = paused
        paused = any(trip.kind == "disk" for trip in trips)
        if was_paused and not paused:
            tracker.emit(
                GUARD, run_id="", label="disk",
                error="store disk recovered; resuming dispatch",
            )
        return paused

    # ------------------------------------------------------------------
    # Serial fallback
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        pending: Sequence[RunSpec],
        tracker: ProgressTracker,
        result: CampaignResult,
    ) -> None:
        paused = False
        for run in pending:
            # Backpressure: wait out a disk-watermark trip before
            # starting more work (suspension still gets through).
            while True:
                if _suspend.suspend_requested():
                    result.interrupted = True
                    _suspend.reset()
                    return
                paused = self._dispatch_paused(tracker, (), paused)
                if not paused:
                    break
                self._sleep(self.guards.poll_interval_s or 0.1)
            self._run_started.setdefault(run.run_id, self._clock())
            tracker.emit(STARTED, run.run_id, run.label)
            attempt = 0
            while True:
                attempt += 1
                try:
                    payload = self.entry(run.params)
                except SuspendRequested as exc:
                    # The entry already wrote the final snapshot (and
                    # reset the flag); park the run and stop dispatching.
                    result.interrupted = True
                    self._park(
                        run, tracker, result,
                        snapshot=exc.snapshot_path, note=str(exc),
                    )
                    return
                except Exception as exc:  # noqa: BLE001 - retry boundary
                    error = f"{type(exc).__name__}: {exc}"
                    if isinstance(exc, WatchdogError) and self._poison_exhausted(
                        run.run_id
                    ):
                        self._quarantine(run, error, tracker, result)
                        break
                    if attempt >= self.max_attempts:
                        tracker.emit(
                            FAILED, run.run_id, run.label,
                            attempt=attempt, error=error,
                        )
                        result.failures.append(
                            RunFailure(run.run_id, run.label, attempt, error)
                        )
                        break
                    tracker.emit(
                        RETRY, run.run_id, run.label,
                        attempt=attempt, error=error,
                    )
                    self._sleep(self._backoff_delay(attempt))
                    continue
                result.results[run.run_id] = self._record(run, payload, attempt)
                tracker.emit(COMPLETED, run.run_id, run.label, attempt=attempt)
                break

    # ------------------------------------------------------------------
    # Parallel executor
    # ------------------------------------------------------------------
    def _run_parallel(
        self,
        pending: Sequence[RunSpec],
        tracker: ProgressTracker,
        result: CampaignResult,
    ) -> None:
        #: (run, attempt, not-before timestamp) waiting for a slot.
        queue: deque[tuple[RunSpec, int, float]] = deque(
            (run, 1, 0.0) for run in pending
        )
        inflight: dict[Future, tuple[RunSpec, int, float]] = {}
        paused = False
        submit_broken = False
        pool = _make_pool(self.workers)
        try:
            while queue or inflight:
                if _suspend.suspend_requested():
                    self._shutdown_parallel(pool, inflight, tracker, result)
                    _suspend.reset()
                    return
                now = self._clock()
                paused = self._dispatch_paused(
                    tracker, list(pool._processes or ()), paused
                )
                submit_broken |= self._top_up(
                    pool, queue, inflight, tracker, paused
                )
                if submit_broken and not inflight:
                    # Crash with nothing to harvest: rebuild right away
                    # (the dead pool joins quickly).
                    pool.shutdown(wait=True, cancel_futures=True)
                    pool = _make_pool(self.workers)
                    submit_broken = False
                    continue
                if not inflight:
                    if paused:
                        # Disk backpressure with nothing in flight: wait
                        # a guard poll out (suspension checked on re-entry).
                        self._sleep(self.guards.poll_interval_s or 0.1)
                        continue
                    # Everything queued is backing off; sleep it out.
                    next_ready = min(ready for _, _, ready in queue)
                    self._sleep(max(next_ready - now, 0.0))
                    continue
                wait_budget = self._wait_budget(inflight, queue, now)
                done, _ = wait(
                    set(inflight), timeout=wait_budget,
                    return_when=FIRST_COMPLETED,
                )
                pool_broken, submit_broken = submit_broken, False
                #: Successful (run, payload, attempt), recorded only once
                #: the pool is topped up again so no worker waits on the
                #: parent's store writes.
                finished: list[tuple[RunSpec, dict[str, object], int]] = []
                for future in done:
                    run, attempt, _ = inflight.pop(future)
                    try:
                        payload = future.result()
                    except SuspendRequested as exc:
                        # The parent's flag is clear (shutdown is handled
                        # at the loop top), so this is a guard shed: the
                        # worker checkpointed the run and stays in the
                        # pool.  Re-queue with no attempt penalty; the
                        # resubmission resumes from the snapshot.
                        self._shed_pids.clear()
                        self._resume_counts[run.run_id] = (
                            self._resume_counts.get(run.run_id, 0) + 1
                        )
                        tracker.emit(
                            RETRY, run.run_id, run.label,
                            attempt=attempt, error=f"shed: {exc}",
                        )
                        queue.append((run, attempt, 0.0))
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        self._retry_or_fail(
                            run, attempt,
                            f"worker crashed ({type(exc).__name__})",
                            queue, tracker, result, poison=True,
                        )
                    except Exception as exc:  # noqa: BLE001 - retry boundary
                        self._retry_or_fail(
                            run, attempt, f"{type(exc).__name__}: {exc}",
                            queue, tracker, result,
                            poison=isinstance(exc, WatchdogError),
                        )
                    else:
                        finished.append((run, payload, attempt))
                # Enforce per-run deadlines on whatever is still out.
                now = self._clock()
                expired = [
                    future
                    for future, (_, _, deadline) in inflight.items()
                    if now >= deadline
                ]
                if expired:
                    for future in expired:
                        run, attempt, _ = inflight.pop(future)
                        future.cancel()
                        self._retry_or_fail(
                            run, attempt,
                            f"timed out after {self.timeout:.1f}s",
                            queue, tracker, result, poison=True,
                        )
                    # The expired task is still running inside a worker;
                    # only a pool teardown reclaims the slot.  Collateral
                    # runs are re-queued with no attempt penalty.
                    pool_broken = True
                if pool_broken:
                    for future, (run, attempt, _) in inflight.items():
                        future.cancel()
                        if future.done() and future.exception() is None:
                            finished.append((run, future.result(), attempt))
                        else:
                            queue.append((run, attempt, 0.0))
                    inflight.clear()
                    # Join crashed pools (their workers are already dead,
                    # so this is quick and avoids interpreter-shutdown
                    # races); never join a pool whose worker is stuck in
                    # a timed-out task.
                    pool.shutdown(wait=not expired, cancel_futures=True)
                    pool = _make_pool(self.workers)
                submit_broken = self._top_up(
                    pool, queue, inflight, tracker, paused
                )
                for run, payload, attempt in finished:
                    result.results[run.run_id] = self._record(
                        run, payload, attempt
                    )
                    tracker.emit(
                        COMPLETED, run.run_id, run.label, attempt=attempt
                    )
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True, cancel_futures=True)

    def _top_up(
        self,
        pool: ProcessPoolExecutor,
        queue: deque[tuple[RunSpec, int, float]],
        inflight: dict[Future, tuple[RunSpec, int, float]],
        tracker: ProgressTracker,
        paused: bool,
    ) -> bool:
        """Submit queued runs until `workers` are in flight.

        At most `workers` runs are out at once, so a run's deadline
        starts ticking when a worker can take it.  Runs still backing
        off stay queued; nothing is submitted while a shutdown is
        requested or the disk guard pauses dispatch.  Returns True when
        the pool turned out broken at submit: the run that hit it is
        blameless and goes back on the queue with no attempt penalty,
        and the caller rebuilds the pool.
        """
        if paused or _suspend.suspend_requested():
            return False
        now = self._clock()
        waiting: list[tuple[RunSpec, int, float]] = []
        broken = False
        while queue and len(inflight) < self.workers:
            run, attempt, ready_at = queue.popleft()
            if ready_at > now:
                waiting.append((run, attempt, ready_at))
                continue
            try:
                future = pool.submit(self.entry, run.params)
            except BrokenProcessPool:
                # A worker crash can surface at submit time, before any
                # in-flight future reports it.
                waiting.append((run, attempt, 0.0))
                broken = True
                break
            deadline = (
                now + self.timeout if self.timeout is not None
                else float("inf")
            )
            inflight[future] = (run, attempt, deadline)
            self._run_started.setdefault(run.run_id, now)
            if attempt == 1:
                tracker.emit(STARTED, run.run_id, run.label)
        queue.extend(waiting)
        return broken

    def _shutdown_parallel(
        self,
        pool: ProcessPoolExecutor,
        inflight: dict[Future, tuple[RunSpec, int, float]],
        tracker: ProgressTracker,
        result: CampaignResult,
    ) -> None:
        """Graceful shutdown: checkpoint in-flight workers, park runs.

        Every worker is SIGTERMed (covering signals delivered only to
        this process, not the group), then given
        :data:`SUSPEND_GRACE_S` seconds to finish or checkpoint.
        Completed runs are recorded normally; suspended and abandoned
        runs land in :attr:`CampaignResult.suspended`.  Queued runs
        need no bookkeeping — their results are simply missing, which
        is what ``repro resume`` executes.
        """
        result.interrupted = True
        for pid in list(pool._processes or ()):
            try:
                self._kill(pid, signal.SIGTERM)
            except (OSError, ProcessLookupError):
                pass
        done, not_done = wait(set(inflight), timeout=SUSPEND_GRACE_S)
        for future in done:
            run, attempt, _ = inflight.pop(future)
            try:
                payload = future.result()
            except SuspendRequested as exc:
                self._park(
                    run, tracker, result,
                    snapshot=exc.snapshot_path, note=str(exc),
                )
            except BaseException as exc:  # noqa: BLE001 - shutdown boundary
                # A crash racing the shutdown; no retry machinery now —
                # park it (resume restarts it, from a periodic snapshot
                # if one exists).
                self._park(
                    run, tracker, result,
                    note=f"{type(exc).__name__}: {exc}",
                )
            else:
                result.results[run.run_id] = self._record(run, payload, attempt)
                tracker.emit(COMPLETED, run.run_id, run.label, attempt=attempt)
        for future in not_done:
            run, _, _ = inflight.pop(future)
            future.cancel()
            self._park(
                run, tracker, result,
                note=f"did not checkpoint within {SUSPEND_GRACE_S:.0f}s grace",
            )
        inflight.clear()
        # Never block on workers that may be mid-snapshot or wedged.
        pool.shutdown(wait=False, cancel_futures=True)

    def _wait_budget(
        self,
        inflight: Mapping[Future, tuple[RunSpec, int, float]],
        queue: Sequence[tuple[RunSpec, int, float]],
        now: float,
    ) -> float | None:
        """How long `wait` may block before bookkeeping must run."""
        bounds = [
            deadline for _, _, deadline in inflight.values()
            if deadline != float("inf")
        ]
        bounds.extend(ready for _, _, ready in queue if ready > now)
        if (
            self.snapshot_dir is not None
            or self.guards is not None
            or self.install_signal_handlers
        ):
            # Preemption armed: wake regularly so the suspend flag and
            # the guards are polled even while every future is busy.
            bounds.append(now + 0.25)
        if not bounds:
            return None
        return max(min(bounds) - now, 0.01)

    def _retry_or_fail(
        self,
        run: RunSpec,
        attempt: int,
        error: str,
        queue: deque,
        tracker: ProgressTracker,
        result: CampaignResult,
        poison: bool = False,
    ) -> None:
        if poison and self._poison_exhausted(run.run_id):
            self._quarantine(run, error, tracker, result)
            return
        if attempt >= self.max_attempts:
            tracker.emit(
                FAILED, run.run_id, run.label, attempt=attempt, error=error
            )
            result.failures.append(
                RunFailure(run.run_id, run.label, attempt, error)
            )
            return
        tracker.emit(RETRY, run.run_id, run.label, attempt=attempt, error=error)
        if self.snapshot_dir is not None and snapshot_path_for(
            self.snapshot_dir, run.run_id
        ).is_file():
            # The retry will restore from this snapshot, not start over.
            self._resume_counts[run.run_id] = (
                self._resume_counts.get(run.run_id, 0) + 1
            )
        ready_at = self._clock() + self._backoff_delay(attempt)
        queue.append((run, attempt + 1, ready_at))
