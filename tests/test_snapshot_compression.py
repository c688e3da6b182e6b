"""Snapshot format v2: zlib-compressed payloads, stale-version fallback."""

import json

import numpy as np
import pytest

from repro.errors import SnapshotError
from repro.slurm.config import SchedulerConfig
from repro.slurm.entry import execute_run
from repro.slurm.manager import build_manager
from repro.snapshot.state import (
    SNAPSHOT_CODEC,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    read_snapshot,
    read_snapshot_header,
    snapshot_bytes,
    write_snapshot,
)
from repro.workload.trinity import TrinityWorkloadGenerator


def build(jobs=60, nodes=16, seed=7):
    rng = np.random.default_rng(seed)
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.85, offered_load=1.3
    ).generate(jobs, nodes, rng)
    config = SchedulerConfig(strategy="shared_backfill")
    return build_manager(
        trace, num_nodes=nodes, strategy="shared_backfill", config=config
    )


def fingerprint(result):
    return (
        [repr(record) for record in result.accounting],
        result.events_dispatched,
        result.scheduler_passes,
    )


class TestCompressedRoundTrip:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        baseline = fingerprint(build().run())
        manager = build()
        manager.run(until=manager.sim.now + 4000)
        path = tmp_path / "mid.snap"
        write_snapshot(manager, path, spec_hash="abc")
        restored = read_snapshot(path, expect_spec_hash="abc")
        assert fingerprint(restored.run()) == baseline

    def test_header_declares_codec_and_compression_wins(self, tmp_path):
        manager = build(jobs=200, nodes=32)
        manager.run(until=5000)
        path = tmp_path / "mid.snap"
        write_snapshot(manager, path)
        header = read_snapshot_header(path)
        assert header["version"] == SNAPSHOT_VERSION == 3
        assert header["codec"] == SNAPSHOT_CODEC == "zlib"
        raw = len(snapshot_bytes(manager))
        assert header["raw_bytes"] == raw
        assert header["payload_bytes"] < raw  # compression actually helps
        assert path.stat().st_size < raw

    def test_version_1_file_rejected(self, tmp_path):
        # Hand-roll a version-1 (uncompressed) snapshot file.
        payload = b"v1-pickle-bytes"
        header = {
            "format": SNAPSHOT_MAGIC,
            "version": 1,
            "spec_hash": None,
            "payload_sha256": __import__("hashlib").sha256(
                payload
            ).hexdigest(),
            "payload_bytes": len(payload),
        }
        path = tmp_path / "stale.snap"
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode())
            handle.write(b"\n")
            handle.write(payload)
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot_header(path)
        assert excinfo.value.reason == "version"
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_garbled_compressed_payload_rejected(self, tmp_path):
        manager = build()
        manager.run(until=2000)
        path = tmp_path / "mid.snap"
        write_snapshot(manager, path)
        # Flip payload bytes but keep the checksum honest, so the
        # failure comes from the zlib layer, not the digest check.
        blob = bytearray(path.read_bytes())
        offset = len(blob) - 8
        blob[offset:] = bytes(b ^ 0xFF for b in blob[offset:])
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            read_snapshot(path)


class TestStaleSnapshotFallback:
    def test_execute_simulate_restarts_on_stale_version(self, tmp_path):
        from repro.campaign.spec import run_id_of, trinity_workload

        params = {
            "kind": "simulate",
            "strategy": "fcfs",
            "num_nodes": 8,
            "workload": trinity_workload(jobs=20, nodes=8, seed=3),
            "config": {},
        }
        from repro.snapshot.state import snapshot_path_for

        run_id = run_id_of(params)
        snap_path = snapshot_path_for(tmp_path, run_id)
        snap_path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "format": SNAPSHOT_MAGIC,
            "version": 1,
            "spec_hash": run_id,
        }
        with open(snap_path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode())
            handle.write(b"\n")
            handle.write(b"v1-pickle-bytes")
        reference = execute_run(params)
        with_stale = execute_run(params, snapshot_dir=str(tmp_path))
        assert with_stale == reference
