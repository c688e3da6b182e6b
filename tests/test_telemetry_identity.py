"""The telemetry purity contract: armed or disarmed, simulation
results are byte-identical.

``execute_run`` is the single campaign execution path, so comparing
its JSON-serialised payloads with and without a ``telemetry_dir``
covers every instrumented site at once — the event loop profiler,
the placement probes, admission control, lifecycle transitions and
the failure/repair hooks.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.campaign.spec import run_id_of, simulate_params, trinity_workload
from repro.core.selector import AvailabilityView
from repro.core.strategy import all_strategy_names
from repro.observability import TelemetryConfig
from repro.slurm.config import SchedulerConfig
from repro.slurm.entry import execute_run
from repro.slurm.manager import build_manager
from repro.workload.trinity import TrinityWorkloadGenerator
from tests.reference_engine import ReferenceAvailabilityView


def canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def params_for(strategy: str, *, resilience: bool = False, seed: int = 11):
    config: dict[str, object] = {"share_threshold": 1.1}
    if resilience:
        config["resilience"] = {
            "node_mtbf_hours": 12.0,
            "checkpoint": "periodic",
            "checkpoint_interval_s": 1800.0,
            "max_requeues": 3,
            "seed": 3,
        }
    return simulate_params(
        strategy, trinity_workload(50, 16, seed, offered_load=1.4), 16,
        config=config,
    )


@pytest.mark.parametrize("strategy", all_strategy_names())
def test_payload_identical_with_and_without_telemetry(strategy, tmp_path):
    params = params_for(strategy)
    baseline = execute_run(params)
    armed = execute_run(params, telemetry_dir=str(tmp_path / "telemetry"))
    assert canonical(baseline) == canonical(armed)


@pytest.mark.parametrize(
    "strategy", ("easy_backfill", "shared_backfill", "first_fit")
)
def test_payload_identical_under_failure_injection(strategy, tmp_path):
    # (The conservative family cannot profile a full-cluster job while
    # a node is down, with or without telemetry — not exercised here.)
    """Telemetry must not disturb the failure-injection RNG stream."""
    params = params_for(strategy, resilience=True)
    baseline = execute_run(params)
    armed = execute_run(params, telemetry_dir=str(tmp_path / "telemetry"))
    assert canonical(baseline) == canonical(armed)
    assert "resilience" in baseline  # the layer actually ran


def test_run_id_never_sees_telemetry(tmp_path):
    """Arming is out-of-band: params (and so content-addressed run
    ids) are identical either way, and execute_run never mutates the
    params it was handed."""
    params = params_for("shared_backfill")
    frozen = json.loads(json.dumps(params))
    before = run_id_of(dict(params))
    execute_run(params, telemetry_dir=str(tmp_path / "telemetry"))
    assert params == frozen
    assert run_id_of(dict(params)) == before
    assert "telemetry" not in params.get("config", {})


def test_sidecar_holds_the_nondeterminism(tmp_path):
    """Everything wall-clock-dependent lands in the sidecar file, and
    the sidecar is complete: exec provenance + all three telemetry
    sections."""
    params = params_for("shared_backfill")
    telemetry_dir = tmp_path / "telemetry"
    execute_run(params, telemetry_dir=str(telemetry_dir))
    run_id = run_id_of(dict(params))
    sidecar_path = telemetry_dir / f"{run_id}.telemetry.json"
    assert sidecar_path.is_file()
    sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    assert sidecar["run_id"] == run_id
    assert sidecar["exec"]["wall_clock_s"] > 0
    assert sidecar["exec"]["resume_count"] == 0
    assert sidecar["metrics"]["counters"]["sim.runs"] == 1
    assert sidecar["decisions"]["emitted"] > 0
    assert sidecar["profile"]["events"]
    # The decision JSONL landed next to it.
    decisions_path = telemetry_dir / f"{run_id}.decisions.jsonl"
    assert decisions_path.is_file()
    first = json.loads(decisions_path.read_text().splitlines()[0])
    assert first["seq"] == 1


def test_decision_stream_is_deterministic(tmp_path):
    """Two armed executions of the same params produce identical
    decision streams — records carry simulated time only."""
    params = params_for("shared_backfill")
    run_id = run_id_of(dict(params))
    streams = []
    for attempt in ("a", "b"):
        telemetry_dir = tmp_path / attempt
        execute_run(params, telemetry_dir=str(telemetry_dir))
        streams.append(
            (telemetry_dir / f"{run_id}.decisions.jsonl").read_bytes()
        )
    assert streams[0] == streams[1]


def decision_records(strategy: str) -> list[dict]:
    """Every record of an armed, contended run, without its ``seq``."""
    config = SchedulerConfig(strategy=strategy)
    config.telemetry = TelemetryConfig(enabled=True)
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.85, offered_load=1.4
    ).generate(50, 16, np.random.default_rng(11))
    manager = build_manager(
        trace, num_nodes=16, strategy=strategy, config=config
    )
    manager.run()
    assert manager.decisions.dropped == 0
    return [
        {k: v for k, v in record.items() if k != "seq"}
        for record in manager.decisions.records
    ]


@pytest.mark.parametrize(
    "strategy", ("shared_first_fit", "shared_backfill", "shared_conservative")
)
def test_size_screens_drop_only_reject_records(strategy, monkeypatch):
    """A probe the pass's size tests rule out records nothing; with the
    screens off, every probe runs and only reject records are added."""
    screened = decision_records(strategy)
    for name in ("rules_out", "may_cover"):
        monkeypatch.setattr(
            AvailabilityView, name, getattr(ReferenceAvailabilityView, name)
        )
    probed = decision_records(strategy)

    def kept(records):
        return [r for r in records if r["type"] != "reject"]

    assert kept(screened) == kept(probed)
    assert len(screened) < len(probed)
