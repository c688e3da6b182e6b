"""replay-windows: a windowed archive replay, storage-bound.

An 8000-job synthetic SWF trace on 64 nodes at load 0.6 is ingested in
windows of 25 jobs (320 windows) and replayed under ``easy_backfill``
into a fresh store.  Every window restores the previous boundary
snapshot, extends the manager, runs, compacts, appends to the columnar
store and writes the next snapshot, so storage work runs 320 times.
The engine sees a shallow queue, an exclusive strategy and no metrics
collector: the opposite of sim-deep.

The replay is timed in blocks of ``BLOCK`` windows: the running unit
ends, and the next starts, as every ``BLOCK``-th window starts, so the
units (windows, store saves, runner bookkeeping) add up to the whole
``replay_archive`` call.
"""

from __future__ import annotations

import contextlib
import shutil
import time
from pathlib import Path
from typing import Iterator

import repro.archive.replay as replay_module

from harness import SETUPS, Pacer, Rep, fastest_setup, paced, sha256_hex
from layers import tracing
from repro.archive.ingest import ingest_swf
from repro.archive.replay import replay_archive
from repro.archive.synth import synth_swf
from repro.faultinject.chaos import store_fingerprint

NAME = "replay-windows"
JOBS = 8000
NODES = 64
LOAD = 0.6
WINDOW_JOBS = 25
WINDOWS = JOBS // WINDOW_JOBS
#: Windows per timing unit.
BLOCK = 16
#: Timing units per replay: the stretch before the first window, then
#: one per block.
UNITS = 1 + WINDOWS // BLOCK
STRATEGY = "easy_backfill"
SCALE = {"jobs": JOBS, "nodes": NODES, "windows": WINDOWS, "runs": WINDOWS,
         "submissions": 0}
ROOT_SPAN = "archive.window"


def ingest(root: Path, seed: int) -> Path:
    synth_swf(root / "trace.swf", jobs=JOBS, nodes=NODES, seed=seed, load=LOAD)
    ingest_swf(root / "trace.swf", root / "archive", window_jobs=WINDOW_JOBS)
    return root / "archive"


def replay(archive: Path, store: Path):
    return replay_archive(archive, store, strategy=STRATEGY, num_nodes=NODES)


def store_digest(store: Path) -> str:
    """SHA-256 over the columnar ``jobs`` family and ``stitched.json``."""
    jobs = store_fingerprint(store).get("columnar/jobs.col", "")
    return sha256_hex(jobs.encode(), (store / "stitched.json").read_bytes())


@contextlib.contextmanager
def window_blocks(pacer: Pacer) -> Iterator[None]:
    """Start a new timing unit as every ``BLOCK``-th replay window
    starts."""
    window = replay_module.execute_replay_window
    started = [0]

    def marked(*args, **kwargs):
        if started[0] % BLOCK == 0:
            pacer.boundary()
        started[0] += 1
        return window(*args, **kwargs)

    replay_module.execute_replay_window = marked
    try:
        yield
    finally:
        replay_module.execute_replay_window = window


def golden_digest(work: Path, seed: int) -> str:
    root = work / "golden-replay"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        replay(ingest(root, seed), root / "store")
        return store_digest(root / "store")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def rep(work: Path, seed: int, index: int, tracer=None) -> Rep:
    root = work / f"replay-{index}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)

    def setup(attempt: int) -> tuple[Path, float]:
        inputs = root / f"inputs-{attempt}"
        inputs.mkdir()
        return paced(lambda: ingest(inputs, seed), time.thread_time)

    def undo(archive: Path) -> None:
        shutil.rmtree(archive.parent)

    try:
        archive, setup_s = fastest_setup(setup, undo, times=SETUPS - 1)
        pacer = Pacer()
        with tracing(tracer), window_blocks(pacer):
            pacer.boundary()
            outcome = replay(archive, root / "store")
            pacer.stop()
        # The last set-up attempt comes after the replay, seconds after
        # the others, so that they do not all meet one stretch of host
        # or disk load (ingest fsyncs every window file).
        late, late_s = setup(SETUPS - 1)
        undo(late)
        stitched = outcome.stitched or {}
        return Rep(
            setups=[min(setup_s, late_s)],
            # Padded with zeros where windows are missing.
            units=pacer.units + [0.0] * (UNITS - len(pacer.units)),
            jobs=JOBS,
            digest=store_digest(root / "store") if outcome.ok else "",
            attempted=WINDOWS,
            failed=WINDOWS - len(outcome.campaign.results),
            checks=[
                (outcome.ok, "replay finished every window"),
                (stitched.get("jobs") == JOBS,
                 f"stitched {stitched.get('jobs')} of {JOBS} jobs"),
            ],
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
