"""Columnar store: append/read round-trips, idempotence, crash safety.

The manifest is the source of truth for row counts; these tests
exercise the two failure modes the design defends against — a torn
tail from a crashed append (truncate-first recovery) and a re-
executed producer (``append_once`` marks) — plus the converter
round-trips between domain objects and the fixed dtypes.
"""

import functools
import json

import numpy as np
import pytest

import repro.storage.durable as durable
from repro.archive.columnar import (
    JOB_STATE_CODES,
    JOBS_DTYPE,
    SPECS_DTYPE,
    ColumnarStore,
    array_to_specs,
    job_records_to_array,
    specs_to_array,
)
from repro.errors import ConfigError
from repro.faultinject import FailpointSpec, FaultPlan, armed
from repro.slurm.accounting import JobRecord
from repro.slurm.job import JobState
from repro.workload.spec import JobSpec


def jobs_batch(n, start=0):
    out = np.zeros(n, dtype=JOBS_DTYPE)
    out["job_id"] = np.arange(start, start + n)
    out["submit_time"] = np.arange(n) * 10.0
    out["end_time"] = np.arange(n) * 10.0 + 500.0
    return out


class TestAppendRead:
    def test_roundtrip(self, tmp_path):
        store = ColumnarStore(tmp_path)
        batch = jobs_batch(10)
        assert store.append("jobs", batch) == 0
        got = np.asarray(store.read("jobs"))
        assert got.tobytes() == batch.tobytes()
        assert store.rows("jobs") == 10

    def test_append_accumulates(self, tmp_path):
        store = ColumnarStore(tmp_path)
        store.append("jobs", jobs_batch(5))
        assert store.append("jobs", jobs_batch(3, start=5)) == 5
        assert store.rows("jobs") == 8
        assert list(store.read("jobs")["job_id"]) == list(range(8))

    def test_reopen_sees_data(self, tmp_path):
        ColumnarStore(tmp_path).append("jobs", jobs_batch(4))
        store = ColumnarStore(tmp_path)
        assert store.rows("jobs") == 4
        assert store.families() == ["jobs"]

    def test_ranged_and_batched_reads(self, tmp_path):
        store = ColumnarStore(tmp_path)
        store.append("jobs", jobs_batch(100))
        assert list(store.read("jobs", start=90, count=5)["job_id"]) == list(
            range(90, 95)
        )
        batches = list(store.iter_batches("jobs", batch_rows=33))
        assert [len(b) for b in batches] == [33, 33, 33, 1]
        assert np.concatenate(batches)["job_id"].tolist() == list(range(100))

    def test_dtype_mismatch_rejected(self, tmp_path):
        store = ColumnarStore(tmp_path)
        store.append("jobs", jobs_batch(2))
        wrong = np.zeros(2, dtype=SPECS_DTYPE)
        with pytest.raises(ConfigError):
            store.append("jobs", wrong)

    def test_unknown_family_read_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ColumnarStore(tmp_path).read("nope")

    def test_is_store_detection(self, tmp_path):
        assert not ColumnarStore.is_store(tmp_path)
        ColumnarStore(tmp_path).append("jobs", jobs_batch(1))
        assert ColumnarStore.is_store(tmp_path)


class TestIdempotenceAndCrashSafety:
    def test_append_once_is_idempotent(self, tmp_path):
        store = ColumnarStore(tmp_path)
        batch = jobs_batch(6)
        assert store.append_once("jobs", "w:0", batch) == 0
        assert store.append_once("jobs", "w:0", batch) is None
        assert store.rows("jobs") == 6

    def test_append_once_idempotent_across_reopen(self, tmp_path):
        ColumnarStore(tmp_path).append_once("jobs", "w:0", jobs_batch(6))
        store = ColumnarStore(tmp_path)
        assert store.append_once("jobs", "w:0", jobs_batch(6)) is None
        assert store.marked("w:0")
        assert store.rows("jobs") == 6

    def test_torn_tail_is_overwritten(self, tmp_path):
        store = ColumnarStore(tmp_path)
        store.append("jobs", jobs_batch(4))
        # Simulate a crash mid-append: bytes on disk past the
        # manifest's row count, manifest never updated.
        with open(store.path_for("jobs"), "ab") as handle:
            handle.write(b"\x7f" * (JOBS_DTYPE.itemsize + 3))
        reopened = ColumnarStore(tmp_path)
        assert reopened.rows("jobs") == 4  # tail invisible
        reopened.append("jobs", jobs_batch(2, start=4))
        got = np.asarray(reopened.read("jobs"))
        assert list(got["job_id"]) == [0, 1, 2, 3, 4, 5]
        # The torn bytes are gone, not interleaved.
        expected = JOBS_DTYPE.itemsize * 6
        assert store.path_for("jobs").stat().st_size == expected

    def test_corrupt_manifest_rejected(self, tmp_path):
        ColumnarStore(tmp_path).append("jobs", jobs_batch(1))
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(ConfigError):
            ColumnarStore(tmp_path)


def store_bytes(root):
    """Every file of a store by name (temp residue included)."""
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestBatch:
    def window_batch(self, store, window):
        with store.batch():
            store.append_once("jobs", f"c:jobs:{window}", jobs_batch(3))
            store.append_once("windows", f"c:windows:{window}", jobs_batch(1))

    def test_one_manifest_write_per_batch(self, tmp_path, monkeypatch):
        writes = []
        original = ColumnarStore._write_manifest

        def counting(self, manifest):
            writes.append(dict(manifest["marks"]))
            return original(self, manifest)

        monkeypatch.setattr(ColumnarStore, "_write_manifest", counting)
        store = ColumnarStore(tmp_path)
        self.window_batch(store, 0)
        assert len(writes) == 1
        assert set(writes[0]) == {"c:jobs:0", "c:windows:0"}
        # Re-running a committed batch appends nothing and writes nothing.
        self.window_batch(store, 0)
        assert len(writes) == 1
        reopened = ColumnarStore(tmp_path)
        assert reopened.rows("jobs") == 3
        assert reopened.rows("windows") == 1

    def test_batch_matches_unbatched_bytes(self, tmp_path):
        self.window_batch(ColumnarStore(tmp_path / "a"), 0)
        plain = ColumnarStore(tmp_path / "b")
        plain.append_once("jobs", "c:jobs:0", jobs_batch(3))
        plain.append_once("windows", "c:windows:0", jobs_batch(1))
        assert store_bytes(tmp_path / "a") == store_bytes(tmp_path / "b")

    def test_failed_manifest_write_commits_nothing(
        self, tmp_path, monkeypatch
    ):
        # One attempt, so the injected EIO is not retried away.
        monkeypatch.setattr(
            durable, "with_io_retries",
            functools.partial(durable.with_io_retries, attempts=1),
        )
        store = ColumnarStore(tmp_path / "crash")
        self.window_batch(store, 0)
        before = store_bytes(tmp_path / "crash")
        plan = FaultPlan([
            FailpointSpec("columnar.manifest.write", "eio", nth=1)
        ])
        with armed(plan), pytest.raises(OSError):
            self.window_batch(store, 1)
        assert plan.hits["columnar.manifest.write"] == 1
        for view in (store, ColumnarStore(tmp_path / "crash")):
            assert not view.marked("c:jobs:1")
            assert not view.marked("c:windows:1")
            assert view.rows("jobs") == 3
            assert view.rows("windows") == 1
        assert (
            (tmp_path / "crash" / "manifest.json").read_bytes()
            == before["manifest.json"]
        )
        # Re-running the batch gives exactly a clean run's bytes.
        self.window_batch(ColumnarStore(tmp_path / "crash"), 1)
        clean = ColumnarStore(tmp_path / "clean")
        self.window_batch(clean, 0)
        self.window_batch(clean, 1)
        assert store_bytes(tmp_path / "crash") == store_bytes(
            tmp_path / "clean"
        )

    def test_failed_block_rolls_back_earlier_appends(self, tmp_path):
        store = ColumnarStore(tmp_path)
        with pytest.raises(ConfigError):
            with store.batch():
                store.append_once("jobs", "c:jobs:0", jobs_batch(3))
                store.append_once("jobs", "c:bad:0", np.zeros(1, SPECS_DTYPE))
        assert not store.marked("c:jobs:0")
        assert store.rows("jobs") == 0
        assert not (tmp_path / "manifest.json").exists()

    def test_no_column_byte_reaches_disk_inside_the_block(self, tmp_path):
        store = ColumnarStore(tmp_path)
        self.window_batch(store, 0)
        before = store_bytes(tmp_path)
        with pytest.raises(RuntimeError):
            with store.batch():
                store.append_once("jobs", "c:jobs:1", jobs_batch(3, 3))
                store.append("windows", jobs_batch(1))
                store.append_once("extra", "c:extra:1", jobs_batch(2))
                assert store_bytes(tmp_path) == before
                # Staged rows are invisible until the commit.
                assert store.rows("jobs") == 3
                assert store.rows("windows") == 1
                assert "extra" not in store.families()
                assert not store.marked("c:jobs:1")
                assert store.marks() == ["c:jobs:0", "c:windows:0"]
                raise RuntimeError("abandon the block")
        assert store_bytes(tmp_path) == before
        assert store.marks() == ["c:jobs:0", "c:windows:0"]

    def test_one_column_write_per_family(self, tmp_path, monkeypatch):
        columns = []
        original = ColumnarStore._write_column

        def counting(self, family, offset, data):
            columns.append((family, offset, len(data)))
            return original(self, family, offset, data)

        monkeypatch.setattr(ColumnarStore, "_write_column", counting)
        store = ColumnarStore(tmp_path / "grouped")
        with store.batch():
            for window in range(3):
                self.window_batch(store, window)
        itemsize = JOBS_DTYPE.itemsize
        assert columns == [("jobs", 0, 9 * itemsize), ("windows", 0, 3 * itemsize)]
        plain = ColumnarStore(tmp_path / "plain")
        for window in range(3):
            self.window_batch(plain, window)
        assert store_bytes(tmp_path / "grouped") == store_bytes(
            tmp_path / "plain"
        )

    def test_nested_batch_joins_the_outer_one(self, tmp_path):
        store = ColumnarStore(tmp_path)
        with store.batch():
            self.window_batch(store, 0)
            with pytest.raises(ConfigError):
                with store.batch():
                    store.append_once("jobs", "c:jobs:1", jobs_batch(3, 3))
                    store.append("jobs", np.zeros(1, SPECS_DTYPE))
            assert not (tmp_path / "manifest.json").exists()
            # The failed inner block's mark is gone, so it can re-run.
            assert store.append_once("jobs", "c:jobs:1", jobs_batch(3, 3)) == 3
        reopened = ColumnarStore(tmp_path)
        assert reopened.marks() == ["c:jobs:0", "c:jobs:1", "c:windows:0"]
        assert list(reopened.read("jobs")["job_id"]) == [0, 1, 2, 3, 4, 5]

    def test_indented_manifest_opens_and_appends(self, tmp_path):
        store = ColumnarStore(tmp_path)
        store.append_once("jobs", "c:jobs:0", jobs_batch(2))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps(manifest, sort_keys=True, indent=1))
        reopened = ColumnarStore(tmp_path)
        assert reopened.marked("c:jobs:0")
        assert reopened.rows("jobs") == 2
        assert reopened.append_once("jobs", "c:jobs:1", jobs_batch(3, 2)) == 2
        again = ColumnarStore(tmp_path)
        assert list(again.read("jobs")["job_id"]) == [0, 1, 2, 3, 4]
        assert again.marks() == ["c:jobs:0", "c:jobs:1"]
        assert b"\n" not in path.read_bytes()


class TestConverters:
    def test_job_records_roundtrip_fields(self):
        record = JobRecord(
            job_id=42, app="cg", user="user7", partition="regular",
            num_nodes=4, submit_time=100.0, start_time=160.0,
            end_time=760.0, state=JobState.COMPLETED, was_shared=True,
            shared_seconds=120.0, dilation=1.1, runtime_exclusive=580.0,
            walltime_req=1200.0, work_done=580.0, requeues=1,
            lost_work=33.0,
        )
        row = job_records_to_array([record])[0]
        assert row["job_id"] == 42
        assert row["state"] == JOB_STATE_CODES["COMPLETED"]
        assert row["was_shared"] == 1
        assert row["requeues"] == 1
        assert row["end_time"] == 760.0
        assert row["lost_work"] == 33.0

    def test_order_preserved(self):
        records = [
            JobRecord(
                job_id=i, app="", user="user0", partition="regular",
                num_nodes=1, submit_time=0.0, start_time=0.0,
                end_time=float(i), state=JobState.COMPLETED,
                was_shared=False, shared_seconds=0.0, dilation=1.0,
                runtime_exclusive=1.0, walltime_req=1.0, work_done=1.0,
            )
            for i in (5, 3, 9, 1)
        ]
        assert list(job_records_to_array(records)["job_id"]) == [5, 3, 9, 1]

    def test_specs_roundtrip_exactly(self):
        specs = [
            JobSpec(
                job_id=i, submit_time=i * 7.0, num_nodes=1 + i % 5,
                walltime_req=900.0 + i, runtime_exclusive=450.0 + i,
                app=("cg", "ft", "")[i % 3], shareable=i % 2 == 0,
                user=f"user{i % 4}", memory_mb_per_node=float(i),
                depends_on=i - 1 if i % 6 == 0 else -1,
            )
            for i in range(1, 30)
        ]
        app_index = {"cg": 1, "ft": 2}
        back = array_to_specs(
            specs_to_array(specs, app_index), ["cg", "ft"]
        )
        assert back == specs
