"""Chaos harness: fingerprinting, and real crash-recovery trials.

The tier-1 subset runs one campaign kill trial, one replay
torn-write trial and one replay snapshot kill trial end to end
(subprocesses, hard kills, recovery, fsck, byte-identity).  The full
catalog sweep over both workloads is CI's ``chaos-smoke`` job — set
``REPRO_CHAOS_SMOKE=1`` to run it here.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign.spec import run_id_of
from repro.campaign.store import ResultStore
from repro.errors import ConfigError
from repro.faultinject.chaos import run_chaos, store_fingerprint


def small_store(root, values=(1, 2)):
    store = ResultStore(root)
    for value in values:
        params = {"kind": "t", "value": value}
        run_id = run_id_of(params)
        store.save(run_id, {
            "run_id": run_id, "label": "t", "params": params,
            "result": {"v": value},
        })
    return store


class TestFingerprint:
    def test_identical_stores_fingerprint_equal(self, tmp_path):
        small_store(tmp_path / "a")
        small_store(tmp_path / "b")
        assert store_fingerprint(tmp_path / "a") == store_fingerprint(
            tmp_path / "b"
        )

    def test_any_record_change_diverges(self, tmp_path):
        store = small_store(tmp_path / "a")
        small_store(tmp_path / "b")
        victim = sorted(store.root.glob("*.json"))[0]
        record = json.loads(victim.read_text())
        record["result"] = {"v": -1}
        victim.write_text(json.dumps(record))
        assert store_fingerprint(tmp_path / "a") != store_fingerprint(
            tmp_path / "b"
        )

    def test_torn_columnar_tail_is_invisible(self, tmp_path):
        # Bytes past the manifest row count are crash garbage the
        # design promises to ignore; identity must ignore them too.
        import numpy as np

        from repro.archive.columnar import JOBS_DTYPE, ColumnarStore

        for sub in ("a", "b"):
            store = ColumnarStore(tmp_path / sub / "columnar")
            batch = np.zeros(3, dtype=JOBS_DTYPE)
            batch["job_id"] = np.arange(3)
            store.append("jobs", batch)
        with open(
            tmp_path / "a" / "columnar" / "jobs.col", "ab"
        ) as handle:
            handle.write(b"\x7f" * 29)
        assert store_fingerprint(tmp_path / "a") == store_fingerprint(
            tmp_path / "b"
        )

    def test_quarantine_and_dotfiles_excluded(self, tmp_path):
        small_store(tmp_path / "a")
        small_store(tmp_path / "b")
        (tmp_path / "a" / "quarantine.json").write_text("{}")
        (tmp_path / "a" / ".r-1.tmp").write_bytes(b"junk")
        assert store_fingerprint(tmp_path / "a") == store_fingerprint(
            tmp_path / "b"
        )


class TestTrials:
    def test_unknown_failpoint_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown failpoint"):
            run_chaos(tmp_path, failpoints=["nope"])

    def test_unknown_workload_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown chaos workload"):
            run_chaos(tmp_path, workload="nope")

    def test_campaign_kill_trial_recovers(self, tmp_path):
        report = run_chaos(
            tmp_path,
            workload="campaign",
            workers=2,
            failpoints=["store.result.write"],
        )
        (trial,) = report.trials
        assert trial.status == "recovered", trial.detail
        assert trial.fired and trial.fsck_ok and trial.identical
        assert report.ok

    def test_replay_torn_write_trial_recovers(self, tmp_path):
        report = run_chaos(
            tmp_path,
            workload="replay",
            failpoints=["columnar.append.write"],
        )
        # One kill trial plus one truncate (torn write) trial.
        assert [t.action for t in report.trials] == ["kill", "truncate"]
        for trial in report.trials:
            assert trial.status == "recovered", (
                f"{trial.failpoint}={trial.action}: {trial.detail}"
            )
        assert report.ok

    def test_replay_snapshot_kill_trial_recovers(self, tmp_path):
        report = run_chaos(
            tmp_path, workload="replay", failpoints=["snapshot.write"],
        )
        kill = next(t for t in report.trials if t.action == "kill")
        assert kill.status == "recovered", kill.detail
        assert kill.fired and kill.fsck_ok and kill.identical
        assert report.ok


@pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS_SMOKE"),
    reason="full catalog sweep; run via REPRO_CHAOS_SMOKE=1 or CI chaos-smoke",
)
class TestFullSweep:
    @pytest.mark.parametrize("workload", ["campaign", "replay"])
    def test_catalog_sweep(self, tmp_path, workload):
        report = run_chaos(tmp_path, workload=workload, workers=2)
        failed = [t for t in report.trials if not t.ok]
        assert not failed, "\n" + report.render()
        assert report.recovered > 0
