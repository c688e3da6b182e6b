"""The durable-write primitive (`repro.storage.durable`): its own
contract, the fsync budget of each unit of work, and a source scan
that keeps the write protocol in that one module."""

from __future__ import annotations

import ast
import functools
import threading
from pathlib import Path

import pytest

import repro.archive.replay as replay
from repro.campaign.queue import QueueWorker, WorkQueue
from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.faultinject import FailpointSpec, FaultPlan, armed
from repro.service.submit import SubmissionRegistry
from repro.storage import durable
from repro.storage.durable import (
    append_durable,
    create_exclusive,
    fsyncs,
    write_atomic,
)
from tests.test_archive_replay import ingest_gap

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def temp_files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.suffix == ".tmp")


def eio(name: str) -> FaultPlan:
    return FaultPlan([FailpointSpec(name, "eio", nth=1)])


class TestWriteAtomic:
    def test_replaces_the_file_with_one_fsync(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"old")
        before = fsyncs()
        assert write_atomic(path, b"new", write_fp=None) == path
        assert fsyncs() - before == 1
        assert path.read_bytes() == b"new"
        assert temp_files(tmp_path) == []

    def test_rename_eio_leaves_old_bytes_and_no_residue(
        self, tmp_path, monkeypatch
    ):
        # One attempt, so the injected EIO is not retried away.
        monkeypatch.setattr(
            durable, "with_io_retries",
            functools.partial(durable.with_io_retries, attempts=1),
        )
        path = tmp_path / "doc.json"
        path.write_bytes(b"old")
        with armed(eio("store.result.rename")), pytest.raises(OSError):
            write_atomic(
                path, b"new",
                write_fp="store.result.write",
                rename_fp="store.result.rename",
            )
        assert path.read_bytes() == b"old"
        assert temp_files(tmp_path) == []

    def test_transient_rename_eio_is_retried(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"old")
        with armed(eio("store.result.rename")):
            write_atomic(
                path, b"new",
                write_fp="store.result.write",
                rename_fp="store.result.rename",
            )
        assert path.read_bytes() == b"new"
        assert temp_files(tmp_path) == []

    def test_transient_write_eio_is_retried_without_residue(self, tmp_path):
        path = tmp_path / "doc.json"
        before = fsyncs()
        with armed(eio("store.result.write")) as plan:
            write_atomic(path, b"payload", write_fp="store.result.write")
        assert "store.result.write" in plan.hits
        assert path.read_bytes() == b"payload"
        assert temp_files(tmp_path) == []
        # The failed attempt never reached its fsync.
        assert fsyncs() - before == 1


class TestCreateExclusive:
    def test_creates_an_absent_path(self, tmp_path):
        path = tmp_path / "key.json"
        assert create_exclusive(path, b"bound", write_fp=None)
        assert path.read_bytes() == b"bound"
        assert temp_files(tmp_path) == []

    def test_existing_path_is_left_untouched(self, tmp_path):
        path = tmp_path / "key.json"
        path.write_bytes(b"first")
        assert not create_exclusive(path, b"second", write_fp=None)
        assert path.read_bytes() == b"first"
        assert temp_files(tmp_path) == []

    def test_racing_threads_get_exactly_one_true(self, tmp_path):
        for round_ in range(20):
            path = tmp_path / f"race-{round_}.json"
            barrier = threading.Barrier(2)
            results: dict[bytes, bool] = {}

            def go(data: bytes) -> None:
                barrier.wait()
                results[data] = create_exclusive(path, data, write_fp=None)

            threads = [
                threading.Thread(target=go, args=(data,))
                for data in (b"a", b"b")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            winners = [data for data, won in results.items() if won]
            assert len(winners) == 1
            assert path.read_bytes() == winners[0]
        assert temp_files(tmp_path) == []


class TestAppendDurable:
    def test_appends_and_counts_one_fsync(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with open(path, "ab") as handle:
            before = fsyncs()
            append_durable(handle, b"one\n", "queue.metrics.write")
            append_durable(handle, b"two\n", None)
        assert fsyncs() - before == 2
        assert path.read_bytes() == b"one\ntwo\n"


def _runs(n: int) -> list[RunSpec]:
    return [
        RunSpec.from_params({"kind": "experiment", "experiment": f"t{i}"})
        for i in range(n)
    ]


class TestFsyncBudgets:
    """Fsyncs per unit of work.  A change that moves one of these
    numbers does so on purpose and says so."""

    def test_one_per_result_save(self, tmp_path):
        store = ResultStore(tmp_path)
        before = fsyncs()
        store.save("ab", {"run_id": "ab", "params": {}, "result": {}})
        assert fsyncs() - before == 1

    def test_four_per_snapshot_group(self, tmp_path, monkeypatch):
        ingest_gap(tmp_path)
        monkeypatch.setattr(replay, "SNAPSHOT_EVERY", 2)
        per_group: list[int] = []
        counted = [fsyncs()]
        original = durable.failpoint

        def at_commit(name):
            # The rename comes after the group's last fsync.
            if name == "columnar.manifest.rename":
                per_group.append(fsyncs() - counted[0])
                counted[0] = fsyncs()
            original(name)

        monkeypatch.setattr(durable, "failpoint", at_commit)
        before = counted[0]
        outcome = replay.replay_archive(
            tmp_path / "archive", tmp_path / "store",
            strategy="easy_backfill", num_nodes=64,
        )
        total = fsyncs() - before
        assert outcome.campaign.ok
        # Groups 0-1, 2-3 and 4.  Each writes its two column files
        # (every group flushes jobs) and the manifest; the first two
        # also write the snapshot of the next group.  stitched.json is
        # one more per chain.
        assert per_group == [4, 4, 3]
        assert total == sum(per_group) + 1

    def test_seven_per_queue_run(self, tmp_path):
        queue = WorkQueue(tmp_path)
        before = fsyncs()
        queue.enqueue(_runs(2))
        QueueWorker(tmp_path, entry=lambda params: {"kind": "test"}).drain()
        assert fsyncs() - before == 2 * 7

    def test_seven_per_served_submission(self, tmp_path):
        registry = SubmissionRegistry(tmp_path)
        spec = {
            "name": "one", "strategies": ["fcfs"], "cluster_sizes": [16],
            "seeds": [1], "jobs": 10,
        }
        before = fsyncs()
        record, created, _ = registry.submit(spec, "key")
        assert created and record["runs"] == 1
        assert fsyncs() - before == 7
        # An idempotent replay only records its event.
        before = fsyncs()
        registry.submit(spec, "key")
        assert fsyncs() - before == 1

    def test_duplicate_submission_skips_the_store_rebuild(self, tmp_path):
        registry = SubmissionRegistry(tmp_path)
        spec = {
            "name": "one", "strategies": ["fcfs"], "cluster_sizes": [16],
            "seeds": [1], "jobs": 10,
        }
        registry.submit(spec, "key")
        # Without a key: only the submit event.
        before = fsyncs()
        _, created, replayed = registry.submit(spec)
        assert not created and not replayed
        assert fsyncs() - before == 1
        # With a new key: the event and the key binding.
        before = fsyncs()
        _, created, replayed = registry.submit(spec, "other")
        assert not created and not replayed
        assert fsyncs() - before == 2
        assert registry._read_key("other") == registry.list_ids()[0]


#: ``module:call`` names that spell out a piece of the write protocol.
PROTOCOL_CALLS = {
    ("os", "fsync"), ("os", "replace"), ("os", "link"),
    ("tempfile", "mkstemp"),
}

#: The one sanctioned use outside durable.py: the ``truncate``
#: failpoint action pushes its torn prefix to disk before killing.
ALLOWED = {("faultinject/registry.py", "os.fsync")}


def _protocol_uses(path: Path) -> list[str]:
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in PROTOCOL_CALLS
        ):
            uses.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in (
            "os", "tempfile"
        ):
            uses.extend(
                f"{node.module}.{alias.name}"
                for alias in node.names
                if (node.module, alias.name) in PROTOCOL_CALLS
            )
    return uses


def test_write_protocol_lives_only_in_durable():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "storage/durable.py":
            continue
        found.extend((rel, use) for use in _protocol_uses(path))
    assert sorted(found) == sorted(ALLOWED)
