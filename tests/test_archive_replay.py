"""Sharded replay correctness: byte-identity, idempotence, stitching.

The central claim of the archive subsystem is that executing a trace
as a chain of snapshot-stitched windows produces the *byte-identical*
accounting array a monolithic run produces — for every strategy,
including backfill timers ticking across idle gaps and dependency
edges crossing window boundaries.  The gap workload below is built
to stress exactly those paths: two bursts separated by a long idle
region, depends_on edges reaching back across windows, and a mix of
shareable/exclusive jobs.
"""

import hashlib
import json
import os
import zlib

import numpy as np
import pytest

import repro.archive.replay as replay
import repro.snapshot.state as snapshot_state
import repro.storage.durable as durable
from repro.archive import (
    chain_id_of,
    ingest_swf,
    load_archive,
    monolithic_jobs_array,
    replay_archive,
    replay_window_params,
)
from repro.archive.columnar import ColumnarStore
from repro.archive.replay import (
    BOUNDARY_DIR_NAME,
    COLUMNAR_DIR_NAME,
    execute_replay_window,
)
from repro.errors import ConfigError, SnapshotError
from repro.core.strategy import all_strategy_names
from repro.faultinject.chaos import store_fingerprint
from repro.faultinject.fsck import fsck_store
from repro.snapshot import suspend
from repro.snapshot.guards import ResourceGuards


def gap_workload_lines():
    """Two job bursts separated by a long idle gap, with deps."""
    lines = ["; App: 1 CG", "; App: 2 FT"]
    jid = 0
    for base in (0, 500_000):
        for i in range(120):
            jid += 1
            submit = base + i * 37
            runtime = 300 + (i * 97) % 4000
            procs = 1 + (i * 13) % 48
            wall = runtime * 2
            queue = 2 if i % 3 == 0 else 1
            dep = jid - 5 if (i % 17 == 0 and jid > 6) else -1
            fields = [jid, submit, -1, runtime, procs, -1, -1, procs,
                      wall, -1, 1, 2, -1, 1 + jid % 2, queue, 1, -1, dep]
            lines.append(" ".join(str(f) for f in fields))
    return lines


def ingest_gap(root, lines=None):
    swf = root / "gap.swf"
    swf.write_text("\n".join(lines or gap_workload_lines()) + "\n")
    return ingest_swf(
        swf, root / "archive", window_jobs=50, chunk_jobs=16, max_procs=64
    )


def wrap_windows(monkeypatch, before=None, after=None):
    """Call *before(params)* and *after(params)* around every replay
    window."""
    original = replay.execute_replay_window

    def wrapped(params, *args, **kwargs):
        if before is not None:
            before(params)
        manager = original(params, *args, **kwargs)
        if after is not None:
            after(params)
        return manager

    monkeypatch.setattr(replay, "execute_replay_window", wrapped)


def suspend_after(window=None):
    """*after* hook requesting a suspend once *window* (default: any
    window) returns, as SIGTERM would."""
    def after(params):
        if window is None or params["window"] == window:
            suspend.request_suspend()

    return after


def replay_until_ok(gap_archive, store, limit=10, **kwargs):
    """Re-call :func:`replay_archive` until it is ok; returns the
    outcomes of every call."""
    outcomes = []
    try:
        while not (outcomes and outcomes[-1].ok):
            assert len(outcomes) < limit, "replay never finished"
            outcomes.append(replay_archive(gap_archive, store, **kwargs))
    finally:
        suspend.reset()  # a suspend requested after the last window
    return outcomes


def record_windows(monkeypatch):
    """Record ``(window, verify)`` for every replay window started."""
    calls = []
    original = replay.execute_replay_window

    def recording(params, *args, **kwargs):
        calls.append((params["window"], kwargs.get("verify", False)))
        return original(params, *args, **kwargs)

    monkeypatch.setattr(replay, "execute_replay_window", recording)
    return calls


def write_version_2_snapshot(path, spec_hash=None) -> None:
    """A well-formed version-2 snapshot file whose payload, like every
    version-2 payload, names a class this build no longer has: only
    the header's version check can refuse it cleanly."""
    raw = b"\x80\x04crepro.diagnostics.recorder\nFlightRecorder\n)\x81."
    payload = zlib.compress(raw)
    header = {
        "format": snapshot_state.SNAPSHOT_MAGIC,
        "version": 2,
        "codec": "zlib",
        "spec_hash": spec_hash,
        "sim_time": 0.0,
        "events_dispatched": 0,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "raw_bytes": len(raw),
    }
    path.write_bytes(
        json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
    )


class Killed(BaseException):
    """Stands in for a hard kill: no ``except Exception`` sees it."""


def fail_commit(monkeypatch, nth, error=RuntimeError):
    """Raise *error* at the *nth* columnar manifest rename of the chain
    — the commit of its *nth* snapshot group — after the group's
    column bytes are written; returns the undo."""
    original = durable.failpoint
    commits = []

    def failing(name):
        if name == "columnar.manifest.rename":
            commits.append(name)
            if len(commits) == nth:
                raise error("injected failure before the rename")
        original(name)

    monkeypatch.setattr(durable, "failpoint", failing)
    return lambda: monkeypatch.setattr(durable, "failpoint", original)


def assert_matches_reference(gap_archive, store, strategy="easy_backfill"):
    """The store's jobs equal the monolithic run's, and fsck is clean."""
    jobs = np.asarray(ColumnarStore(store / COLUMNAR_DIR_NAME).read("jobs"))
    reference = monolithic_jobs_array(load_archive(gap_archive), strategy, 64)
    assert jobs.tobytes() == reference.tobytes()
    assert_fsck_clean(store)


def assert_fsck_clean(store):
    report = fsck_store(store)
    assert report.ok, [f.render() for f in report.findings]


def count_restores(monkeypatch):
    """Count snapshot restores."""
    calls = []
    original = snapshot_state.read_snapshot

    def counting(path, expect_spec_hash=None):
        calls.append(path)
        return original(path, expect_spec_hash=expect_spec_hash)

    monkeypatch.setattr(snapshot_state, "read_snapshot", counting)
    return calls


@pytest.fixture(scope="module")
def gap_archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("gaparch")
    result = ingest_gap(root)
    assert result.windows == 5
    assert result.jobs == 240
    return root / "archive"


@pytest.fixture(scope="module")
def long_archive(tmp_path_factory):
    """The gap workload in 20 windows: snapshot groups 0-7, 8-15 and
    16-19.  Returns the archive and a clean easy_backfill replay
    store of it."""
    root = tmp_path_factory.mktemp("longarch")
    swf = root / "gap.swf"
    swf.write_text("\n".join(gap_workload_lines()) + "\n")
    result = ingest_swf(
        swf, root / "archive", window_jobs=12, chunk_jobs=16, max_procs=64
    )
    assert result.windows == 20
    assert replay_archive(
        root / "archive", root / "clean", strategy="easy_backfill",
        num_nodes=64,
    ).ok
    return root / "archive", root / "clean"


class TestByteIdentity:
    @pytest.mark.parametrize("strategy", all_strategy_names())
    def test_sharded_equals_monolithic(self, gap_archive, tmp_path, strategy):
        config = {"backfill_interval": 120.0}
        outcome = replay_archive(
            gap_archive, tmp_path / "store", strategy=strategy,
            num_nodes=64, config=config,
        )
        assert outcome.ok
        sharded = np.asarray(ColumnarStore(outcome.columnar).read("jobs"))
        reference = monolithic_jobs_array(
            load_archive(gap_archive), strategy, 64, config=config
        )
        assert sharded.tobytes() == reference.tobytes()
        assert len(sharded) == 240

    @pytest.mark.parametrize("strategy", all_strategy_names())
    def test_sharded_equals_monolithic_without_handoff(
        self, gap_archive, tmp_path, monkeypatch, strategy
    ):
        """A suspend after every window ends each call there, so every
        later window restores its boundary snapshot in a new call
        instead of taking its predecessor's live manager: the
        stitching invariant must hold on that path too."""
        wrap_windows(monkeypatch, after=suspend_after())
        restores = count_restores(monkeypatch)
        config = {"backfill_interval": 120.0}
        outcomes = replay_until_ok(
            gap_archive, tmp_path / "store", strategy=strategy,
            num_nodes=64, config=config,
        )
        assert len(outcomes) == 5
        for outcome in outcomes[:-1]:
            assert outcome.campaign.interrupted
            assert outcome.campaign.completed == 1
        assert len(restores) == 4
        sharded = np.asarray(
            ColumnarStore(outcomes[-1].columnar).read("jobs")
        )
        reference = monolithic_jobs_array(
            load_archive(gap_archive), strategy, 64, config=config
        )
        assert sharded.tobytes() == reference.tobytes()


class TestHandoff:
    def test_in_process_chain_restores_nothing(
        self, gap_archive, tmp_path, monkeypatch
    ):
        restores = count_restores(monkeypatch)
        telemetry = tmp_path / "telemetry"
        outcome = replay_archive(
            gap_archive, tmp_path / "store", strategy="easy_backfill",
            num_nodes=64, telemetry_dir=telemetry,
        )
        assert outcome.ok
        assert restores == []
        # A hand-off is not a resume.
        for sidecar in telemetry.glob("*.telemetry.json"):
            assert json.loads(sidecar.read_text())["exec"]["resume_count"] == 0

    def test_deleted_snapshot_resumes_from_the_previous_one(
        self, gap_archive, tmp_path, monkeypatch
    ):
        """A suspend after window 2 leaves snapshot 3; with it deleted
        the resume falls back to snapshot 2, re-derives window 2 and
        still matches the monolithic reference."""
        monkeypatch.setattr(replay, "SNAPSHOT_EVERY", 2)
        store = tmp_path / "store"
        original = replay.execute_replay_window
        wrap_windows(monkeypatch, after=suspend_after(window=2))
        try:
            first = replay_archive(
                gap_archive, store, strategy="easy_backfill", num_nodes=64
            )
        finally:
            suspend.reset()
        assert first.campaign.interrupted
        assert first.campaign.completed == 3
        boundaries = store / BOUNDARY_DIR_NAME
        snap = boundaries / f"{first.chain}-w00003.snap"
        snap.unlink()
        monkeypatch.setattr(replay, "execute_replay_window", original)
        windows = record_windows(monkeypatch)
        restores = count_restores(monkeypatch)
        second = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert second.ok
        assert (second.campaign.cached, second.campaign.completed) == (3, 2)
        assert [p.name for p in restores] == [f"{second.chain}-w00002.snap"]
        assert windows == [(2, True), (3, False), (4, False)]
        assert_matches_reference(gap_archive, store)

    def test_failed_window_stops_the_chain(
        self, gap_archive, tmp_path, monkeypatch
    ):
        def fail(params):
            if params["window"] == 1:
                raise RuntimeError("injected window failure")

        wrap_windows(monkeypatch, before=fail)
        events = []
        outcome = replay_archive(
            gap_archive, tmp_path / "store", strategy="fcfs", num_nodes=64,
            progress=events.append,
        )
        assert not outcome.ok
        assert [f.label for f in outcome.campaign.failures] == ["window 1"]
        assert [e.label for e in events if e.kind == "started"] == [
            "window 0", "window 1",
        ]
        assert len(outcome.campaign.results) == 1
        assert outcome.stitched is None
        assert not (tmp_path / "store" / "stitched.json").exists()


class TestArchiveMemo:
    def test_manifest_parsed_once(self, gap_archive, tmp_path, monkeypatch):
        loads = []
        original = replay.load_archive

        def counting(root):
            loads.append(root)
            return original(root)

        monkeypatch.setattr(replay, "_archive_memo", None)
        monkeypatch.setattr(replay, "load_archive", counting)
        outcome = replay_archive(
            gap_archive, tmp_path / "store", strategy="fcfs", num_nodes=64
        )
        assert outcome.ok
        assert len(loads) == 1

    def test_reingest_changes_archive_id(self, tmp_path):
        ingest_gap(tmp_path)
        archive = load_archive(tmp_path / "archive")
        dirs = {
            "archive_dir": str(tmp_path / "archive"),
            "columnar_dir": str(tmp_path / "store" / COLUMNAR_DIR_NAME),
            "boundary_dir": str(tmp_path / "store" / BOUNDARY_DIR_NAME),
        }

        def params(window):
            return replay_window_params(
                archive.archive_id, window, len(archive), "fcfs", 64
            )

        execute_replay_window(params(0), **dirs)
        # Same directory, same window count, different jobs.
        lines = gap_workload_lines()
        fields = lines[5].split()
        fields[3] = str(int(fields[3]) + 1)  # one job's runtime
        lines[5] = " ".join(fields)
        assert ingest_gap(tmp_path, lines).archive_id != archive.archive_id
        with pytest.raises(ConfigError, match="re-ingested"):
            execute_replay_window(params(1), **dirs)


class TestSharedStore:
    def test_second_chain_refused(self, gap_archive, tmp_path):
        store = tmp_path / "store"
        first = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert first.ok
        stitched = (store / "stitched.json").read_bytes()
        records = sorted(p.name for p in store.glob("*.json"))
        with pytest.raises(ConfigError, match="fresh --store"):
            replay_archive(gap_archive, store, strategy="fcfs", num_nodes=64)
        assert (store / "stitched.json").read_bytes() == stitched
        assert sorted(p.name for p in store.glob("*.json")) == records
        assert ColumnarStore(store / COLUMNAR_DIR_NAME).rows("jobs") == 240
        report = fsck_store(store)
        assert report.ok, [f.render() for f in report.findings]
        # The same chain may still resume into its own store.
        assert replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        ).ok


class TestResumeIdempotence:
    def test_rerun_does_not_double_count(
        self, gap_archive, tmp_path, monkeypatch
    ):
        """The commit of windows 2-3 fails after their column bytes
        are written but before the manifest: the re-run restores
        snapshot 2 once and its columnar appends overwrite the
        uncommitted tail instead of adding to it."""
        monkeypatch.setattr(replay, "SNAPSHOT_EVERY", 2)
        store = tmp_path / "store"
        undo = fail_commit(monkeypatch, 2)
        first = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert not first.ok
        assert [f.label for f in first.campaign.failures] == ["window 3"]
        assert ColumnarStore(first.columnar).rows("windows") == 2
        undo()

        restores = count_restores(monkeypatch)
        second = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert second.ok
        assert (second.campaign.cached, second.campaign.completed) == (2, 3)
        assert [p.name for p in restores] == [f"{second.chain}-w00002.snap"]
        assert ColumnarStore(second.columnar).rows("windows") == 5
        assert_matches_reference(gap_archive, store)

    def test_failed_snapshot_leaves_its_window_uncommitted(
        self, gap_archive, tmp_path, monkeypatch
    ):
        """Window 3 writes snapshot 4 before its group's commit, so a
        failed write leaves window 3 unmarked while window 2, run
        before it in the same group, commits; the re-run restores
        snapshot 2 and re-derives window 2 on its way back to window
        3."""
        monkeypatch.setattr(replay, "SNAPSHOT_EVERY", 2)
        store = tmp_path / "store"
        original = snapshot_state.write_snapshot
        writes = []

        def fail_second_write(manager, path, spec_hash=None):
            writes.append(path)
            if len(writes) == 2:
                raise OSError("injected snapshot write failure")
            return original(manager, path, spec_hash=spec_hash)

        monkeypatch.setattr(snapshot_state, "write_snapshot", fail_second_write)
        first = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert [f.label for f in first.campaign.failures] == ["window 3"]
        assert [p.name for p in writes] == [
            f"{first.chain}-w00002.snap", f"{first.chain}-w00004.snap",
        ]
        assert ColumnarStore(first.columnar).rows("windows") == 3
        monkeypatch.setattr(snapshot_state, "write_snapshot", original)

        restores = count_restores(monkeypatch)
        second = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert second.ok
        assert [p.name for p in restores] == [f"{second.chain}-w00002.snap"]
        assert_matches_reference(gap_archive, store)

    def test_finished_chain_rerun_is_a_no_op(self, gap_archive, tmp_path):
        store = tmp_path / "store"
        first = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert first.ok
        assert len(first.campaign.results) == 5
        # The columnar marks are the only progress record.
        assert sorted(p.name for p in store.glob("*.json")) == [
            "stitched.json"
        ]
        before = store_fingerprint(store)
        second = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert second.ok
        assert (second.campaign.completed, second.campaign.cached) == (0, 5)
        assert second.campaign.results == first.campaign.results
        assert store_fingerprint(store) == before


class TestVerifiedResume:
    """A resume starts from the newest boundary snapshot at or before
    the first uncommitted window and re-derives the committed windows
    after it, checking their rows against the committed ones."""

    def crash_in_window_3(self, gap_archive, store, monkeypatch):
        """Fail window 3 at ``SNAPSHOT_EVERY = 2``: the commit of its
        group keeps window 2, so windows 0-2 are committed and only
        snapshot 2 exists."""
        monkeypatch.setattr(replay, "SNAPSHOT_EVERY", 2)
        original = replay.execute_replay_window

        def fail(params):
            if params["window"] == 3:
                raise RuntimeError("injected window failure")

        wrap_windows(monkeypatch, before=fail)
        first = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        monkeypatch.setattr(replay, "execute_replay_window", original)
        assert [f.label for f in first.campaign.failures] == ["window 3"]
        assert first.campaign.completed == 3
        assert ColumnarStore(first.columnar).rows("windows") == 3
        snaps = sorted(p.name for p in (store / BOUNDARY_DIR_NAME).iterdir())
        assert snaps == [f"{first.chain}-w00002.snap"]
        return first.chain

    def test_crash_rederives_only_the_windows_after_the_snapshot(
        self, gap_archive, tmp_path, monkeypatch
    ):
        store = tmp_path / "store"
        chain = self.crash_in_window_3(gap_archive, store, monkeypatch)
        windows = record_windows(monkeypatch)
        restores = count_restores(monkeypatch)
        events = []
        second = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64,
            progress=events.append, telemetry_dir=tmp_path / "telemetry",
        )
        assert second.ok
        assert [p.name for p in restores] == [f"{chain}-w00002.snap"]
        assert windows == [(2, True), (3, False), (4, False)]
        # A re-derived window counts as cached and leaves no sidecar.
        assert (second.campaign.cached, second.campaign.completed) == (3, 2)
        assert [e.label for e in events if e.kind == "started"] == [
            "window 3", "window 4",
        ]
        assert len(list((tmp_path / "telemetry").iterdir())) == 2
        assert_matches_reference(gap_archive, store)

    def test_divergent_committed_row_fails_the_resume(
        self, gap_archive, tmp_path, monkeypatch
    ):
        store = tmp_path / "store"
        chain = self.crash_in_window_3(gap_archive, store, monkeypatch)
        columnar = ColumnarStore(store / COLUMNAR_DIR_NAME)
        row = columnar.mark_row(f"{chain}:jobs:2")
        dtype = columnar.dtype("jobs")
        offset = row * dtype.itemsize + dtype.fields["work_done"][1]
        with open(columnar.path_for("jobs"), "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 1]))
        before = store_fingerprint(store)
        second = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert not second.ok
        (failure,) = second.campaign.failures
        assert failure.label == "window 2"
        assert failure.error.startswith("SimulationError")
        assert "window 2 re-derived jobs rows" in failure.error
        assert second.campaign.completed == 0
        assert second.stitched is None
        assert store_fingerprint(store) == before
        assert ColumnarStore(store / COLUMNAR_DIR_NAME).rows("windows") == 3
        assert_fsck_clean(store)

    def test_store_with_every_snapshot_resumes_without_rederiving(
        self, gap_archive, tmp_path, monkeypatch
    ):
        """Older versions wrote a snapshot at every boundary; such a
        store resumes from the snapshot of its first uncommitted
        window.  At ``SNAPSHOT_EVERY = 1`` every window is its own
        group, so the fourth commit is window 3's."""
        monkeypatch.setattr(replay, "SNAPSHOT_EVERY", 1)
        store = tmp_path / "store"
        undo = fail_commit(monkeypatch, 4)
        first = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        undo()
        assert [f.label for f in first.campaign.failures] == ["window 3"]
        monkeypatch.setattr(replay, "SNAPSHOT_EVERY", 8)
        windows = record_windows(monkeypatch)
        restores = count_restores(monkeypatch)
        second = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert second.ok
        assert [p.name for p in restores] == [f"{second.chain}-w00003.snap"]
        assert windows == [(3, False), (4, False)]
        assert_matches_reference(gap_archive, store)

    def test_suspend_snapshots_the_next_window(
        self, gap_archive, tmp_path, monkeypatch
    ):
        store = tmp_path / "store"
        original = replay.execute_replay_window
        wrap_windows(monkeypatch, after=suspend_after(window=2))
        try:
            first = replay_archive(
                gap_archive, store, strategy="easy_backfill", num_nodes=64
            )
        finally:
            suspend.reset()
        assert first.campaign.interrupted
        assert sorted(p.name for p in (store / BOUNDARY_DIR_NAME).iterdir()) \
            == [f"{first.chain}-w00003.snap"]
        assert_fsck_clean(store)
        monkeypatch.setattr(replay, "execute_replay_window", original)
        windows = record_windows(monkeypatch)
        restores = count_restores(monkeypatch)
        second = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert second.ok
        assert [p.name for p in restores] == [f"{second.chain}-w00003.snap"]
        assert windows == [(3, False), (4, False)]
        assert_matches_reference(gap_archive, store)

    def test_guard_trip_snapshots_the_next_window(
        self, gap_archive, tmp_path, monkeypatch
    ):
        checks = []

        def over_budget_once(pid):
            checks.append(pid)
            return 1000.0 if len(checks) == 2 else 0.0

        guards = ResourceGuards(
            rss_budget_mb=1, poll_interval_s=0, rss_probe=over_budget_once
        )
        store = tmp_path / "store"
        first = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64,
            guards=guards,
        )
        assert first.campaign.interrupted
        assert first.campaign.completed == 2
        assert sorted(p.name for p in (store / BOUNDARY_DIR_NAME).iterdir()) \
            == [f"{first.chain}-w00002.snap"]
        assert_fsck_clean(store)
        windows = record_windows(monkeypatch)
        restores = count_restores(monkeypatch)
        second = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert second.ok
        assert [p.name for p in restores] == [f"{second.chain}-w00002.snap"]
        assert windows == [(2, False), (3, False), (4, False)]
        assert_matches_reference(gap_archive, store)


class TestGroupCommit:
    """A replay commits once per snapshot group: the windows between
    two boundary snapshots become visible together."""

    def test_kill_at_a_group_commit_resumes_without_verifying(
        self, long_archive, tmp_path, monkeypatch
    ):
        archive, clean = long_archive
        store = tmp_path / "store"
        undo = fail_commit(monkeypatch, 2, error=Killed)
        with pytest.raises(Killed):
            replay_archive(archive, store, strategy="easy_backfill", num_nodes=64)
        undo()
        assert ColumnarStore(store / COLUMNAR_DIR_NAME).rows("windows") == 8
        windows = record_windows(monkeypatch)
        restores = count_restores(monkeypatch)
        second = replay_archive(
            archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert second.ok
        # Group 8-15 wrote snapshot 16 and died at its commit; its start
        # snapshot 8 lets the resume re-derive nothing.
        assert [p.name for p in restores] == [f"{second.chain}-w00008.snap"]
        assert windows == [(k, False) for k in range(8, 20)]
        assert (second.campaign.cached, second.campaign.completed) == (8, 12)
        assert store_fingerprint(store) == store_fingerprint(clean)
        assert_fsck_clean(store)

    def test_failed_window_commits_the_windows_before_it(
        self, long_archive, tmp_path, monkeypatch
    ):
        archive, clean = long_archive
        store = tmp_path / "store"
        original = replay.execute_replay_window

        def fail(params):
            if params["window"] == 11:
                raise RuntimeError("injected window failure")

        wrap_windows(monkeypatch, before=fail)
        events = []
        first = replay_archive(
            archive, store, strategy="easy_backfill", num_nodes=64,
            progress=events.append,
        )
        monkeypatch.setattr(replay, "execute_replay_window", original)
        assert [f.label for f in first.campaign.failures] == ["window 11"]
        assert first.campaign.completed == 11
        assert [e.label for e in events if e.kind == "completed"] == [
            f"window {k}" for k in range(11)
        ]
        assert ColumnarStore(first.columnar).rows("windows") == 11
        assert_fsck_clean(store)
        windows = record_windows(monkeypatch)
        restores = count_restores(monkeypatch)
        second = replay_archive(
            archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert second.ok
        assert [p.name for p in restores] == [f"{second.chain}-w00008.snap"]
        assert windows == [(k, k < 11) for k in range(8, 20)]
        assert (second.campaign.cached, second.campaign.completed) == (11, 9)
        assert store_fingerprint(store) == store_fingerprint(clean)

    def test_failed_group_commit_fails_its_closing_window(
        self, long_archive, tmp_path, monkeypatch
    ):
        archive, clean = long_archive
        store = tmp_path / "store"
        undo = fail_commit(monkeypatch, 2)
        events = []
        first = replay_archive(
            archive, store, strategy="easy_backfill", num_nodes=64,
            progress=events.append,
        )
        undo()
        assert [f.label for f in first.campaign.failures] == ["window 15"]
        assert [e.label for e in events if e.kind == "completed"] == [
            f"window {k}" for k in range(8)
        ]
        assert first.campaign.completed == 8
        # Nothing of windows 8-15 is visible: the store holds exactly
        # the clean replay's first group.
        reference = ColumnarStore(clean / COLUMNAR_DIR_NAME)
        visible = ColumnarStore(store / COLUMNAR_DIR_NAME)
        committed = int(reference.read("windows", 0, 8)["jobs_flushed"].sum())
        assert visible.rows("windows") == 8
        assert visible.rows("jobs") == committed
        assert np.asarray(visible.read("jobs")).tobytes() == np.asarray(
            reference.read("jobs", 0, committed)
        ).tobytes()
        assert visible.marks() == sorted(
            key for key in reference.marks() if int(key.rsplit(":", 1)[1]) < 8
        )
        assert_fsck_clean(store)
        second = replay_archive(
            archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert second.ok
        assert (second.campaign.cached, second.campaign.completed) == (8, 12)
        assert store_fingerprint(store) == store_fingerprint(clean)

    def test_store_committed_window_by_window_resumes(
        self, long_archive, tmp_path, monkeypatch
    ):
        """Earlier versions committed every window on its own, with a
        snapshot at every eighth boundary; such a store resumes from
        snapshot 8, verifies windows 8-11 and ends byte-identical."""
        archive, clean = long_archive
        store = tmp_path / "store"
        loaded = load_archive(archive)
        manager = None
        for k in range(12):
            params = replay_window_params(
                loaded.archive_id, k, len(loaded), "easy_backfill", 64
            )
            manager = execute_replay_window(
                params, archive, store / COLUMNAR_DIR_NAME,
                store / BOUNDARY_DIR_NAME, manager=manager,
            )
            assert ColumnarStore(store / COLUMNAR_DIR_NAME).rows("windows") \
                == k + 1
        windows = record_windows(monkeypatch)
        restores = count_restores(monkeypatch)
        second = replay_archive(
            archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert second.ok
        assert [p.name for p in restores] == [f"{second.chain}-w00008.snap"]
        assert windows == [(k, k < 12) for k in range(8, 20)]
        assert store_fingerprint(store) == store_fingerprint(clean)


class TestGuards:
    def test_rss_trip_ends_the_call_after_one_window(
        self, gap_archive, tmp_path
    ):
        probed = []

        def over_budget(pid):
            probed.append(pid)
            return 1000.0

        def guards():
            return ResourceGuards(
                rss_budget_mb=1, poll_interval_s=0, rss_probe=over_budget
            )

        events = []
        first = replay_archive(
            gap_archive, tmp_path / "guarded", strategy="fcfs",
            num_nodes=64, guards=guards(), progress=events.append,
        )
        assert first.campaign.interrupted
        assert first.campaign.completed == 1
        assert [e.label for e in events if e.kind == "guard"] == ["rss"]
        assert set(probed) == {os.getpid()}
        outcomes = [first] + replay_until_ok(
            gap_archive, tmp_path / "guarded", strategy="fcfs",
            num_nodes=64, guards=guards(),
        )
        # Every call makes progress; the last window has no successor
        # to protect, so no guard is polled after it.
        assert len(outcomes) == 5
        clean = replay_archive(
            gap_archive, tmp_path / "clean", strategy="fcfs", num_nodes=64
        )
        assert clean.ok
        assert store_fingerprint(tmp_path / "guarded") == store_fingerprint(
            tmp_path / "clean"
        )


class TestStitchedSummary:
    def test_stitched_json_contents(self, gap_archive, tmp_path):
        outcome = replay_archive(
            gap_archive, tmp_path / "store", strategy="fcfs", num_nodes=64
        )
        assert outcome.ok
        doc = json.loads((tmp_path / "store" / "stitched.json").read_text())
        assert doc == outcome.stitched
        assert doc["jobs"] == 240
        assert doc["windows"] == 5
        assert doc["strategy"] == "fcfs"
        assert doc["completed"] + doc["timeouts"] + doc["cancelled"] + doc[
            "failed"
        ] == 240
        assert doc["makespan_s"] > 500_000
        assert doc["chain"] == outcome.chain

    def test_boundary_snapshots_cleaned_up_on_success(
        self, gap_archive, tmp_path
    ):
        outcome = replay_archive(
            gap_archive, tmp_path / "store", strategy="fcfs", num_nodes=64
        )
        assert outcome.ok
        boundaries = tmp_path / "store" / BOUNDARY_DIR_NAME
        assert not list(boundaries.glob("*.snap"))


class TestWindowEntryErrors:
    def params(self, gap_archive, window=0):
        archive = load_archive(gap_archive)
        return replay_window_params(
            archive.archive_id, window, len(archive.windows), "fcfs", 64
        )

    def test_archive_id_mismatch_rejected(self, gap_archive, tmp_path):
        params = self.params(gap_archive)
        params["archive_id"] = "0" * 16
        with pytest.raises(ConfigError):
            execute_replay_window(
                params,
                archive_dir=str(gap_archive),
                columnar_dir=str(tmp_path / COLUMNAR_DIR_NAME),
                boundary_dir=str(tmp_path / BOUNDARY_DIR_NAME),
            )

    def test_missing_boundary_snapshot_rejected(self, gap_archive, tmp_path):
        params = self.params(gap_archive, window=2)
        with pytest.raises(SnapshotError):
            execute_replay_window(
                params,
                archive_dir=str(gap_archive),
                columnar_dir=str(tmp_path / COLUMNAR_DIR_NAME),
                boundary_dir=str(tmp_path / BOUNDARY_DIR_NAME),
            )

    def test_version_2_boundary_snapshot_fails_the_resume(
        self, gap_archive, tmp_path, monkeypatch
    ):
        """A boundary snapshot of format 2 is refused by its header:
        the resume fails its window with a version error naming both
        versions, and nothing of the old payload is unpickled."""
        store = tmp_path / "store"
        original = replay.execute_replay_window
        wrap_windows(monkeypatch, after=suspend_after(window=2))
        try:
            first = replay_archive(
                gap_archive, store, strategy="easy_backfill", num_nodes=64
            )
        finally:
            suspend.reset()
        monkeypatch.setattr(replay, "execute_replay_window", original)
        assert first.campaign.interrupted
        snap = store / BOUNDARY_DIR_NAME / f"{first.chain}-w00003.snap"
        spec_hash = snapshot_state.read_snapshot_header(snap)["spec_hash"]
        write_version_2_snapshot(snap, spec_hash=spec_hash)

        second = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert not second.ok
        (failure,) = second.campaign.failures
        assert failure.label == "window 3"
        assert failure.error.startswith("SnapshotError: ")
        with pytest.raises(SnapshotError) as excinfo:
            execute_replay_window(
                replay_window_params(
                    load_archive(gap_archive).archive_id, 3, 5,
                    "easy_backfill", 64,
                ),
                archive_dir=str(gap_archive),
                columnar_dir=str(store / COLUMNAR_DIR_NAME),
                boundary_dir=str(store / BOUNDARY_DIR_NAME),
            )
        assert excinfo.value.reason == "version"
        assert "version 2 (this build reads version 4)" in str(excinfo.value)
        assert str(excinfo.value) in failure.error

    def test_chain_id_ignores_window(self, gap_archive):
        a = self.params(gap_archive, window=0)
        b = self.params(gap_archive, window=3)
        assert chain_id_of(a) == chain_id_of(b)
        assert a != b
