"""Store aggregation: shape detection, columnar streaming aggregation.

``repro stats`` must aggregate a replay store without loading any
per-run JSON (the whole point of the columnar store at archive
scale); the JSON-store path keeps working unchanged through the same
:func:`~repro.observability.stats.aggregate_store` call.
"""

import json

import pytest

from repro.archive import ingest_swf, replay_archive, synth_swf
from repro.cli import main
from repro.errors import ConfigError
from repro.observability.stats import aggregate_store


@pytest.fixture(scope="module")
def replay_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("statsarch")
    synth_swf(root / "t.swf", jobs=300, nodes=32, seed=11)
    ingest_swf(root / "t.swf", root / "archive", window_jobs=80)
    outcome = replay_archive(
        root / "archive", root / "store", strategy="easy_backfill",
        num_nodes=32,
    )
    assert outcome.ok
    return root / "store"


@pytest.fixture(scope="module")
def json_store(tmp_path_factory):
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import (
        RunSpec,
        simulate_params,
        trinity_workload,
    )
    from repro.campaign.store import ResultStore
    from repro.slurm.entry import execute_run

    root = tmp_path_factory.mktemp("statsjson")
    specs = [
        RunSpec.from_params(simulate_params(
            strategy=strategy, num_nodes=8,
            workload=trinity_workload(jobs=15, nodes=8, seed=2),
        ))
        for strategy in ("fcfs", "easy_backfill")
    ]
    runner = CampaignRunner(
        store=ResultStore(root), workers=1, entry=execute_run
    )
    assert runner.run(specs).ok
    return root


class TestDetectBackend:
    def test_replay_store_detected_as_columnar(self, replay_store):
        doc = aggregate_store(replay_store)
        assert doc["backend"] == "columnar"
        assert doc["store"] == str(replay_store)

    def test_bare_columnar_root_detected(self, replay_store):
        doc = aggregate_store(replay_store / "columnar")
        assert doc["backend"] == "columnar"
        assert "strategy" not in doc  # no stitched.json context

    def test_json_store_detected(self, tmp_path):
        (tmp_path / "deadbeef.json").write_text("{}")
        doc = aggregate_store(tmp_path)
        assert doc["backend"] == "json-store"
        assert doc["strategies"] == []

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            aggregate_store(tmp_path / "nope")


class TestColumnarAggregation:
    def test_aggregate_without_per_run_json(self, replay_store):
        # Corrupt every per-run JSON: a columnar aggregation must not
        # read them at all.
        for path in replay_store.glob("*.json"):
            if path.name != "stitched.json":
                path.write_text("{corrupt")
        doc = aggregate_store(replay_store)
        assert doc["backend"] == "columnar"
        assert doc["summary"]["jobs"] == 300
        assert doc["summary"]["windows"] == 4
        assert doc["strategy"] == "easy_backfill"

    def test_summary_rows_one_per_window(self, replay_store):
        rows = aggregate_store(replay_store)["windows"]
        assert [r["window"] for r in rows] == [0, 1, 2, 3]
        assert sum(r["jobs_flushed"] for r in rows) == 300


class TestStatsCli:
    def test_table_output(self, replay_store, capsys):
        assert main(["stats", str(replay_store)]) == 0
        out = capsys.readouterr().out
        assert "easy_backfill" in out
        assert "window" in out.lower()

    def test_json_output(self, replay_store, capsys):
        assert main(["stats", str(replay_store), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["jobs"] == 300

    def test_csv_output(self, replay_store, capsys):
        assert main(["stats", str(replay_store), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("window,")
        assert len(lines) == 5  # header + one row per window

    def test_json_store_path_still_works(self, json_store, capsys):
        assert main(["stats", str(json_store)]) == 0
        assert "fcfs" in capsys.readouterr().out
        assert main(["stats", str(json_store), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["backend"] == "json-store"

    def test_table_loads_each_run_record_once(self, json_store,
                                              monkeypatch, capsys):
        from repro.campaign.store import ResultStore

        loads: list[str] = []
        original = ResultStore.load

        def counting_load(self, run_id):
            loads.append(run_id)
            return original(self, run_id)

        monkeypatch.setattr(ResultStore, "load", counting_load)
        assert main(["stats", str(json_store)]) == 0
        capsys.readouterr()
        run_ids = sorted(ResultStore(json_store).completed_ids())
        assert len(run_ids) == 2
        assert sorted(loads) == run_ids
