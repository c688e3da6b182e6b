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

import json

import numpy as np
import pytest

import repro.archive.replay as replay
import repro.snapshot.state as snapshot_state
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
from repro.faultinject.fsck import fsck_store


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


def wrap_windows(monkeypatch, before):
    """Route every replay window through *before(params)* first."""
    original = replay.execute_replay_window

    def wrapped(params, **kwargs):
        before(params)
        return original(params, **kwargs)

    monkeypatch.setattr(replay, "execute_replay_window", wrapped)


def count_restores(monkeypatch):
    """Count real snapshot restores (hand-offs do not read one)."""
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
        """Emptying the hand-off slot before every window forces each
        window through WorkloadManager.restore: the stitching
        invariant must hold on that path too."""
        def defeat(params):
            replay._handoff = None

        wrap_windows(monkeypatch, defeat)
        restores = count_restores(monkeypatch)
        config = {"backfill_interval": 120.0}
        outcome = replay_archive(
            gap_archive, tmp_path / "store", strategy=strategy,
            num_nodes=64, config=config,
        )
        assert outcome.ok
        assert len(restores) == 4
        sharded = np.asarray(ColumnarStore(outcome.columnar).read("jobs"))
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

    def test_rewritten_snapshot_declines_handoff(
        self, gap_archive, tmp_path, monkeypatch
    ):
        boundary_dir = tmp_path / "store" / BOUNDARY_DIR_NAME
        read = snapshot_state.read_snapshot
        rewritten = []

        def rewrite(params):
            if params["window"] != 2:
                return
            chain = chain_id_of(params)
            path = boundary_dir / f"{chain}-w00002.snap"
            manager = read(path, expect_spec_hash=f"{chain}:2")
            before = path.read_bytes()
            snapshot_state.write_snapshot(
                manager, path, spec_hash=f"{chain}:2"
            )
            rewritten.append(path.read_bytes() != before)

        wrap_windows(monkeypatch, rewrite)
        restores = count_restores(monkeypatch)
        outcome = replay_archive(
            gap_archive, tmp_path / "store", strategy="easy_backfill",
            num_nodes=64,
        )
        assert outcome.ok
        assert rewritten == [True]
        assert [p.name for p in restores] == [
            f"{outcome.chain}-w00002.snap"
        ]
        sharded = np.asarray(ColumnarStore(outcome.columnar).read("jobs"))
        reference = monolithic_jobs_array(
            load_archive(gap_archive), "easy_backfill", 64
        )
        assert sharded.tobytes() == reference.tobytes()

    def test_deleted_snapshot_still_rejected(self, gap_archive, tmp_path):
        archive = load_archive(gap_archive)
        dirs = {
            "archive_dir": str(gap_archive),
            "columnar_dir": str(tmp_path / COLUMNAR_DIR_NAME),
            "boundary_dir": str(tmp_path / BOUNDARY_DIR_NAME),
        }
        try:
            for window in (0, 1):
                execute_replay_window(
                    replay_window_params(
                        archive.archive_id, window, len(archive), "fcfs", 64
                    ),
                    **dirs,
                )
            assert replay._handoff is not None
            replay._handoff[0].unlink()
            with pytest.raises(SnapshotError):
                execute_replay_window(
                    replay_window_params(
                        archive.archive_id, 2, len(archive), "fcfs", 64
                    ),
                    **dirs,
                )
            assert replay._handoff is None
        finally:
            replay._handoff = None

    def test_slot_empty_after_replay(self, gap_archive, tmp_path):
        outcome = replay_archive(
            gap_archive, tmp_path / "store", strategy="fcfs", num_nodes=64
        )
        assert outcome.ok
        assert replay._handoff is None

    def test_slot_empty_after_failed_window(
        self, gap_archive, tmp_path, monkeypatch
    ):
        seen = []

        def fail_last(params):
            if params["window"] == 4:
                seen.append(replay._handoff is not None)
                raise RuntimeError("injected window failure")

        wrap_windows(monkeypatch, fail_last)
        outcome = replay_archive(
            gap_archive, tmp_path / "store", strategy="fcfs", num_nodes=64
        )
        assert not outcome.ok
        assert seen == [True]  # the slot was full when the window failed
        assert replay._handoff is None


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

        try:
            execute_replay_window(params(0), **dirs)
            # Same directory, same window count, different jobs.
            lines = gap_workload_lines()
            fields = lines[5].split()
            fields[3] = str(int(fields[3]) + 1)  # one job's runtime
            lines[5] = " ".join(fields)
            assert ingest_gap(tmp_path, lines).archive_id != archive.archive_id
            with pytest.raises(ConfigError, match="re-ingested"):
                execute_replay_window(params(1), **dirs)
        finally:
            replay._handoff = None


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
    def test_rerun_does_not_double_count(self, gap_archive, tmp_path):
        store = tmp_path / "store"
        first = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert first.ok
        jobs_before = np.asarray(
            ColumnarStore(first.columnar).read("jobs")
        ).tobytes()
        # Drop window 0's campaign JSON: the runner re-executes it
        # (window 0 needs no boundary snapshot) and the columnar
        # append_once mark must swallow the duplicate flush.
        victim = None
        for path in store.glob("*.json"):
            doc = json.loads(path.read_text())
            if doc.get("params", {}).get("window") == 0:
                victim = path
                break
        assert victim is not None
        victim.unlink()
        second = replay_archive(
            gap_archive, store, strategy="easy_backfill", num_nodes=64
        )
        assert second.ok
        after = np.asarray(ColumnarStore(second.columnar).read("jobs"))
        assert after.tobytes() == jobs_before
        assert ColumnarStore(second.columnar).rows("windows") == 5


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

    def test_chain_id_ignores_window(self, gap_archive):
        a = self.params(gap_archive, window=0)
        b = self.params(gap_archive, window=3)
        assert chain_id_of(a) == chain_id_of(b)
        assert a != b
