"""Telemetry-armed campaign stores and snapshots.

An armed campaign writes per-run sidecars under ``<store>/telemetry/``
and nothing else: two identical armed campaigns, through the runner or
through ``--join``, leave stores with equal fingerprints, and
``repro stats`` is the one place the sidecars are merged.  A snapshot
taken with the older manager layout, which also held the metrics hub
in a manager slot, still restores and runs to the same accounting.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.faultinject.chaos import store_fingerprint
from repro.observability import TelemetryConfig
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import WorkloadManager, build_manager
from repro.snapshot.state import read_snapshot, write_snapshot
from repro.workload.trinity import TrinityWorkloadGenerator

#: Two seeds times two strategies: four runs per store.
GRID = [
    "--jobs", "25", "--sizes", "16", "--seeds", "1", "2",
    "--strategies", "fcfs", "easy_backfill", "--telemetry", "--quiet",
]

STORES = {
    "runner-a": [],
    "runner-b": [],
    "join-a": ["--join", "--workers", "1"],
    "join-b": ["--join", "--workers", "1"],
}


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("armed")
    for name, extra in STORES.items():
        assert main(
            ["campaign", *GRID, "--store", str(root / name), *extra]
        ) == 0
    return root


class TestArmedCampaignStores:
    def test_identical_armed_campaigns_have_equal_fingerprints(self, stores):
        prints = {name: store_fingerprint(stores / name) for name in STORES}
        assert prints["runner-a"] == prints["runner-b"]
        assert prints["join-a"] == prints["join-b"]
        # The two executors record different settings in the manifest
        # (``queue``, ``workers``); every result artifact is the same.
        for fingerprint in prints.values():
            del fingerprint[".campaign.json"]
        assert prints["runner-a"] == prints["join-a"]

    def test_no_store_level_telemetry_document(self, stores):
        for name in STORES:
            assert not (stores / name / "telemetry.json").exists(), name
            sidecars = list((stores / name / "telemetry").glob("*.json"))
            assert len(sidecars) == 4, name

    def test_stats_merges_every_sidecar(self, stores, capsys):
        for name in STORES:
            capsys.readouterr()
            assert main(["stats", str(stores / name), "--format", "json"]) == 0
            document = json.loads(capsys.readouterr().out)
            assert document["runs"] == 4, name
            assert document["telemetry"]["runs"] == 4, name


def _armed_manager():
    rng = np.random.default_rng(7)
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.85, offered_load=1.3
    ).generate(60, 16, rng)
    config = SchedulerConfig(strategy="shared_backfill")
    config.telemetry = TelemetryConfig(enabled=True)
    return build_manager(
        trace, num_nodes=16, strategy="shared_backfill", config=config
    )


class TestLegacySnapshotLayout:
    def test_manager_hub_slot_restores_to_same_accounting(self, tmp_path):
        reference = _armed_manager()
        expected = reference.run()

        manager = _armed_manager()
        manager.sim.run(until=4000.0)
        assert manager.sim.heap, "snapshot point must be mid-run"
        # The older layout: the manager's own slot and the trace's
        # attribute are one hub object.
        manager.hub = manager.decisions.hub
        path = write_snapshot(manager, tmp_path / "legacy.snap")
        restored = read_snapshot(path)
        assert isinstance(restored, WorkloadManager)
        assert not hasattr(restored, "hub")

        result = restored.run()
        assert [repr(r) for r in result.accounting] == [
            repr(r) for r in expected.accounting
        ]
        assert result.events_dispatched == expected.events_dispatched
        assert (
            restored.telemetry_summary()["metrics"]
            == reference.telemetry_summary()["metrics"]
        )
        assert list(restored.decisions.records) == list(
            reference.decisions.records
        )
