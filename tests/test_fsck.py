"""``repro fsck``: every invariant class, plus CLI exit codes.

Each test builds a genuinely consistent artifact through the real
write paths, tampers with exactly one invariant, and asserts fsck
pins the violation with the right finding code — corruption fsck
cannot name is corruption nobody will debug.
"""

from __future__ import annotations

import hashlib
import json
import zlib

import numpy as np
import pytest

from repro.archive.columnar import JOBS_DTYPE, ColumnarStore
from repro.campaign.spec import run_id_of
from repro.campaign.store import ResultStore
from repro.cli import EXIT_SIGPIPE, main
from repro.errors import ConfigError
from repro.faultinject.fsck import fsck_archive, fsck_path, fsck_store
from repro.snapshot.state import (
    SNAPSHOT_CODEC,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
)


def make_store(root, values=(1, 2)):
    """A small, fully consistent campaign store."""
    store = ResultStore(root)
    for value in values:
        params = {"kind": "t", "value": value}
        run_id = run_id_of(params)
        store.save(run_id, {
            "run_id": run_id,
            "label": f"t-{value}",
            "params": params,
            "result": {"doubled": value * 2},
            "meta": {"attempts": 1},
        })
    store.write_manifest("t", {}, {})
    store.export_jsonl(store.root / "results.jsonl")
    return store


def make_snapshot(path, payload=b"payload-bytes"):
    compressed = zlib.compress(payload)
    header = {
        "format": SNAPSHOT_MAGIC,
        "version": SNAPSHOT_VERSION,
        "codec": SNAPSHOT_CODEC,
        "spec_hash": "0" * 16,
        "sim_time": 1.0,
        "events_dispatched": 1,
        "payload_sha256": hashlib.sha256(compressed).hexdigest(),
        "payload_bytes": len(compressed),
        "raw_bytes": len(payload),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(
        json.dumps(header, sort_keys=True).encode() + b"\n" + compressed
    )


def codes(report, level=None):
    return {
        f.code for f in report.findings
        if level is None or f.level == level
    }


class TestStoreInvariants:
    def test_clean_store_passes(self, tmp_path):
        make_store(tmp_path / "store")
        report = fsck_store(tmp_path / "store")
        assert report.ok and not report.findings
        assert report.checked["records"] == 2

    def test_renamed_record_caught_by_content_hash(self, tmp_path):
        store = make_store(tmp_path / "store")
        a, b = sorted(store.completed_ids())
        (store.root / f"{a}.json").rename(store.root / "0123456789abcdef.json")
        report = fsck_store(store.root)
        assert not report.ok
        assert {"record.run-id", "record.hash"} <= codes(report, "error")

    def test_truncated_record_is_a_parse_error(self, tmp_path):
        store = make_store(tmp_path / "store")
        victim = sorted(store.root.glob("[0-9a-f]*.json"))[0]
        victim.write_bytes(victim.read_bytes()[:20])
        assert "record.parse" in codes(fsck_store(store.root), "error")

    def test_wrong_store_version_flagged(self, tmp_path):
        store = make_store(tmp_path / "store")
        victim = sorted(store.root.glob("[0-9a-f]*.json"))[0]
        record = json.loads(victim.read_text())
        record["store_version"] = 99
        victim.write_text(json.dumps(record))
        assert "record.version" in codes(fsck_store(store.root), "error")

    def test_corrupt_manifest_flagged(self, tmp_path):
        store = make_store(tmp_path / "store")
        (store.root / ".campaign.json").write_text("{not json")
        assert "manifest.parse" in codes(fsck_store(store.root), "error")

    def test_stale_jsonl_flagged(self, tmp_path):
        store = make_store(tmp_path / "store")
        victim = sorted(store.root.glob("[0-9a-f]*.json"))[0]
        record = json.loads(victim.read_text())
        record["result"] = {"doubled": -1}
        victim.write_text(json.dumps(record))
        assert "jsonl.stale" in codes(fsck_store(store.root), "error")

    def test_orphan_jsonl_line_is_a_warning(self, tmp_path):
        store = make_store(tmp_path / "store")
        victim = sorted(store.root.glob("[0-9a-f]*.json"))[0]
        victim.unlink()
        report = fsck_store(store.root)
        assert "jsonl.orphan" in codes(report, "warning")

    def test_tmp_residue_is_a_warning_not_an_error(self, tmp_path):
        store = make_store(tmp_path / "store")
        (store.root / ".r-12345.tmp").write_bytes(b"half a record")
        report = fsck_store(store.root)
        assert report.ok
        assert "store.tmp-residue" in codes(report, "warning")


class TestSnapshotInvariants:
    def test_clean_snapshot_passes(self, tmp_path):
        store = make_store(tmp_path / "store")
        make_snapshot(store.root / "snapshots" / "aa.snap")
        report = fsck_store(store.root)
        assert report.ok and report.checked["snapshots"] == 1

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        store = make_store(tmp_path / "store")
        snap = store.root / "snapshots" / "aa.snap"
        make_snapshot(snap)
        data = bytearray(snap.read_bytes())
        data[-1] ^= 0xFF
        snap.write_bytes(bytes(data))
        assert "snapshot.checksum" in codes(fsck_store(store.root), "error")

    def test_truncated_payload_detected(self, tmp_path):
        store = make_store(tmp_path / "store")
        snap = store.root / "boundaries" / "bb.snap"
        make_snapshot(snap)
        snap.write_bytes(snap.read_bytes()[:-3])
        assert "snapshot.truncated" in codes(fsck_store(store.root), "error")

    def test_garbage_header_detected(self, tmp_path):
        store = make_store(tmp_path / "store")
        snap = store.root / "snapshots" / "cc.snap"
        snap.parent.mkdir()
        snap.write_bytes(b"\x80\x04not a snapshot")
        assert "snapshot.header" in codes(fsck_store(store.root), "error")


class TestColumnarInvariants:
    def _columnar(self, root, rows=6):
        store = ColumnarStore(root)
        batch = np.zeros(rows, dtype=JOBS_DTYPE)
        batch["job_id"] = np.arange(rows)
        store.append_once("jobs", "c:jobs:0", batch)
        return store

    def test_torn_tail_is_a_warning(self, tmp_path):
        store = self._columnar(tmp_path / "columnar")
        with open(store.path_for("jobs"), "ab") as handle:
            handle.write(b"\x7f" * 11)
        report = fsck_path(tmp_path / "columnar")
        assert report.kind == "columnar"
        assert report.ok
        assert "columnar.torn-tail" in codes(report, "warning")

    def test_missing_column_bytes_are_an_error(self, tmp_path):
        store = self._columnar(tmp_path / "columnar")
        path = store.path_for("jobs")
        path.write_bytes(path.read_bytes()[:-JOBS_DTYPE.itemsize])
        assert "columnar.rows" in codes(fsck_path(tmp_path / "columnar"), "error")

    def test_mark_past_family_rows_is_an_error(self, tmp_path):
        self._columnar(tmp_path / "columnar")
        manifest_path = tmp_path / "columnar" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["marks"]["c:jobs:1"] = 999
        manifest_path.write_text(json.dumps(manifest))
        assert "mark.range" in codes(fsck_path(tmp_path / "columnar"), "error")


class TestArchiveInvariants:
    def _archive(self, tmp_path):
        from repro.archive.ingest import ingest_swf
        from repro.archive.synth import synth_swf

        trace = tmp_path / "trace.swf"
        synth_swf(trace, jobs=60, nodes=16, seed=5)
        archive = tmp_path / "archive"
        ingest_swf(trace, archive, window_jobs=25)
        return archive

    def test_clean_archive_passes(self, tmp_path):
        report = fsck_archive(self._archive(tmp_path))
        assert report.ok and report.checked["windows"] >= 2

    def test_tampered_window_bytes_break_archive_id(self, tmp_path):
        archive = self._archive(tmp_path)
        window = sorted((archive / "windows").glob("*.col"))[0]
        data = bytearray(window.read_bytes())
        data[0] ^= 0xFF
        window.write_bytes(bytes(data))
        assert "archive.id" in codes(fsck_archive(archive), "error")

    def test_truncated_window_is_a_size_error(self, tmp_path):
        archive = self._archive(tmp_path)
        window = sorted((archive / "windows").glob("*.col"))[0]
        window.write_bytes(window.read_bytes()[:-5])
        report = fsck_archive(archive)
        assert "archive.window-size" in codes(report, "error")

    def test_dispatch_finds_archive_kind(self, tmp_path):
        report = fsck_path(self._archive(tmp_path))
        assert report.kind == "archive"


class TestCliExitCodes:
    def test_clean_store_exits_zero(self, tmp_path, capsys):
        make_store(tmp_path / "store")
        assert main(["fsck", str(tmp_path / "store")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        store = make_store(tmp_path / "store")
        victim = sorted(store.root.glob("[0-9a-f]*.json"))[0]
        victim.write_bytes(b"{broken")
        assert main(["fsck", str(store.root)]) == 1
        assert "INCONSISTENT" in capsys.readouterr().out

    def test_not_a_store_exits_two(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["fsck", str(tmp_path / "empty")]) == 2
        assert "fsck error" in capsys.readouterr().err

    def test_json_report_shape(self, tmp_path, capsys):
        make_store(tmp_path / "store")
        assert main(["fsck", str(tmp_path / "store"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["kind"] == "store"

    def test_broken_pipe_exits_141(self, tmp_path, monkeypatch, capsys):
        # `repro fsck store | head -1` closing the pipe early must be
        # the conventional 128+SIGPIPE status, not a traceback.
        make_store(tmp_path / "store")
        import repro.cli as cli_mod

        def burst(path):
            raise BrokenPipeError

        monkeypatch.setattr(cli_mod, "_cmd_fsck", lambda args: burst(args))
        assert main(["fsck", str(tmp_path / "store")]) == EXIT_SIGPIPE

    def test_fsck_path_rejects_file(self, tmp_path):
        target = tmp_path / "plain.txt"
        target.write_text("hello")
        with pytest.raises(ConfigError):
            fsck_path(target)


# ----------------------------------------------------------------------
# Work-queue hygiene (leases, items, residue)
# ----------------------------------------------------------------------
class TestQueueInvariants:
    def _queued_store(self, root):
        from repro.campaign.queue import WorkQueue
        from repro.campaign.spec import RunSpec

        store = make_store(root)
        queue = WorkQueue(root)
        run = RunSpec.from_params({"kind": "experiment", "experiment": "qx"})
        queue.enqueue([run])
        return store, queue, run

    def test_clean_queue_passes(self, tmp_path):
        self._queued_store(tmp_path / "store")
        report = fsck_store(tmp_path / "store")
        assert report.ok and not report.findings
        assert report.checked["queue-items"] == 1

    def test_orphan_lease_is_a_warning(self, tmp_path):
        store, queue, run = self._queued_store(tmp_path / "store")
        queue.leases.claim("no-such-item", 1)
        report = fsck_store(store.root)
        assert report.ok  # warnings, not errors: the supervisor recovers
        assert "queue.lease-orphan" in codes(report, "warning")

    def test_dead_holder_lease_flagged_and_repaired(self, tmp_path):
        import subprocess
        import sys

        store, queue, run = self._queued_store(tmp_path / "store")
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        queue.leases.claim(run.run_id, 1, pid=proc.pid)
        report = fsck_store(store.root)
        assert "queue.lease-dead-holder" in codes(report, "warning")

        report = fsck_store(store.root, repair=True)
        assert "queue.lease-repaired" in codes(report, "warning")
        assert not queue.leases.path_for(run.run_id).exists()
        assert report.ok

    def test_live_holder_lease_is_not_reaped(self, tmp_path):
        import os

        store, queue, run = self._queued_store(tmp_path / "store")
        queue.leases.claim(run.run_id, 1, pid=os.getpid())
        report = fsck_store(store.root, repair=True)
        assert "queue.lease-repaired" not in codes(report)
        assert queue.leases.path_for(run.run_id).exists()

    def test_empty_lease_file_is_unreadable_warning(self, tmp_path):
        store, queue, run = self._queued_store(tmp_path / "store")
        queue.leases.path_for(run.run_id).touch()
        report = fsck_store(store.root)
        assert "queue.lease-unreadable" in codes(report, "warning")

    def test_item_for_stored_run_flagged(self, tmp_path):
        store, queue, run = self._queued_store(tmp_path / "store")
        store.save(run.run_id, {
            "run_id": run.run_id,
            "label": run.label,
            "params": dict(run.params),
            "result": {"ok": True},
            "meta": {"attempts": 1},
        })
        store.export_jsonl(store.root / "results.jsonl")
        report = fsck_store(store.root)
        assert "queue.item-done" in codes(report, "warning")

    def test_queue_residue_flagged_and_repaired(self, tmp_path):
        store, queue, run = self._queued_store(tmp_path / "store")
        stamp = queue.root / "queue.lease.create.fired"
        stamp.touch()
        tmp = queue.items_dir / ".half-item.tmp"
        tmp.write_text("{")
        report = fsck_store(store.root)
        assert "queue.residue" in codes(report, "warning")

        report = fsck_store(store.root, repair=True)
        assert "queue.residue-repaired" in codes(report, "warning")
        assert not stamp.exists() and not tmp.exists()

    def test_repair_never_touches_items_or_records(self, tmp_path):
        store, queue, run = self._queued_store(tmp_path / "store")
        before = sorted(p.name for p in store.root.glob("*.json"))
        items = sorted(p.name for p in queue.items_dir.glob("*.json"))
        fsck_store(store.root, repair=True)
        assert sorted(p.name for p in store.root.glob("*.json")) == before
        assert sorted(
            p.name for p in queue.items_dir.glob("*.json")
        ) == items

    def test_cli_repair_flag(self, tmp_path, capsys):
        import subprocess
        import sys

        store, queue, run = self._queued_store(tmp_path / "store")
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        queue.leases.claim(run.run_id, 1, pid=proc.pid)
        assert main(["fsck", str(store.root), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "queue.lease-repaired" in out
        assert not queue.leases.path_for(run.run_id).exists()
