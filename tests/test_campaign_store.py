"""Tests for the on-disk result store, including crash atomicity."""

import json
import os

import pytest

from repro.campaign.store import STORE_VERSION, ResultStore
from repro.errors import ConfigError
from repro.faultinject import FaultPlan, armed, parse_plan
from repro.storage.durable import fsyncs

RECORD = {
    "run_id": "a" * 16,
    "label": "fcfs seed=1",
    "params": {"kind": "simulate", "strategy": "fcfs"},
    "result": {"makespan_s": 123.0},
    "meta": {"attempts": 1},
}


class TestRoundtrip:
    def test_save_load(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        saved = store.save(RECORD["run_id"], RECORD)
        assert store.path_for(RECORD["run_id"]).exists()
        loaded = store.load(RECORD["run_id"])
        assert saved == loaded
        assert loaded["params"] == RECORD["params"]
        assert loaded["result"] == RECORD["result"]
        assert loaded["store_version"] == STORE_VERSION

    def test_has_and_delete(self, tmp_path):
        store = ResultStore(tmp_path)
        rid = RECORD["run_id"]
        assert not store.has(rid)
        store.save(rid, RECORD)
        assert store.has(rid)
        assert store.delete(rid)
        assert not store.has(rid)
        assert not store.delete(rid)

    def test_save_overwrites(self, tmp_path):
        store = ResultStore(tmp_path)
        rid = RECORD["run_id"]
        store.save(rid, RECORD)
        store.save(rid, {**RECORD, "result": {"makespan_s": 9.0}})
        assert store.load(rid)["result"] == {"makespan_s": 9.0}

    def test_root_created(self, tmp_path):
        root = tmp_path / "deep" / "nested"
        ResultStore(root)
        assert root.is_dir()

    def test_invalid_run_ids_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(ConfigError):
                store.path_for(bad)


class TestAtomicity:
    def test_crash_during_write_leaves_no_final_file(
        self, tmp_path, monkeypatch
    ):
        """A crash before the rename must not produce a result file —
        a partial file would be mistaken for a completed run on resume."""
        store = ResultStore(tmp_path)
        rid = RECORD["run_id"]

        def exploding_fsync(fd):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="simulated crash"):
            store.save(rid, RECORD)
        assert not store.has(rid)
        # The temp file is cleaned up too — no debris accumulates.
        assert list(tmp_path.iterdir()) == []

    def test_crash_during_rename_preserves_old_record(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        rid = RECORD["run_id"]
        store.save(rid, RECORD)
        real_replace = os.replace

        def exploding_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="at rename"):
            store.save(rid, {**RECORD, "result": {"makespan_s": 0.0}})
        monkeypatch.setattr(os, "replace", real_replace)
        # Old complete record still readable; new partial state gone.
        assert store.load(rid)["result"] == RECORD["result"]

    def test_inflight_temp_files_are_not_results(self, tmp_path):
        """A temp file left by a killed process must be invisible to
        has()/completed_ids() — resume treats the run as missing."""
        store = ResultStore(tmp_path)
        rid = RECORD["run_id"]
        (tmp_path / f".{rid}-pid123.tmp").write_text("{\"partial\":")
        assert not store.has(rid)
        assert store.completed_ids() == set()

    def test_result_files_are_valid_json(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(RECORD["run_id"], RECORD)
        json.loads(store.path_for(RECORD["run_id"]).read_text())


class TestEnumeration:
    def test_completed_ids_len_iter(self, tmp_path):
        store = ResultStore(tmp_path)
        ids = [f"{i:016x}" for i in range(3)]
        for rid in ids:
            store.save(rid, {**RECORD, "run_id": rid})
        assert store.completed_ids() == set(ids)
        assert len(store) == 3
        assert list(store) == sorted(ids)


class TestJsonlExport:
    def test_export_all_sorted(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        ids = [f"{i:016x}" for i in (2, 0, 1)]
        for rid in ids:
            store.save(rid, {**RECORD, "run_id": rid})
        out = tmp_path / "results.jsonl"
        assert store.export_jsonl(out) == 3
        lines = out.read_text().splitlines()
        assert [json.loads(l)["run_id"] for l in lines] == sorted(ids)

    def test_export_subset_keeps_order_skips_missing(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        for rid in ("b" * 16, "a" * 16):
            store.save(rid, {**RECORD, "run_id": rid})
        out = tmp_path / "sub.jsonl"
        wanted = ["b" * 16, "f" * 16, "a" * 16]  # middle one missing
        assert store.export_jsonl(out, run_ids=wanted) == 2
        lines = out.read_text().splitlines()
        assert [json.loads(l)["run_id"] for l in lines] == ["b" * 16, "a" * 16]

    def test_export_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        out = tmp_path / "empty.jsonl"
        assert store.export_jsonl(out) == 0
        assert out.read_text() == ""

    def test_export_is_fsynced_once(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        store.save(RECORD["run_id"], RECORD)
        before = fsyncs()
        store.export_jsonl(tmp_path / "results.jsonl")
        assert fsyncs() - before == 1

    def test_export_survives_transient_eio(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        store.save(RECORD["run_id"], RECORD)
        out = tmp_path / "results.jsonl"
        with armed(FaultPlan(parse_plan("store.jsonl.write=eio"))) as plan:
            assert store.export_jsonl(out) == 1
        assert "store.jsonl.write" in plan.hits
        assert json.loads(out.read_text())["run_id"] == RECORD["run_id"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "results.jsonl", "runs",
        ]
