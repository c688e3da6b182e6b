"""Perfetto/Chrome trace export: schema validity, well-nestedness,
and pid/tid stability across suspend/resume.

The export is a pure function of (deterministic) simulation results
and (simulated-time-only) decision records, so a resumed run must
export a document byte-identical to an uninterrupted one — the
property that makes traces comparable across preemptions.
"""

from __future__ import annotations

import json
import signal

import numpy as np
import pytest

from repro.errors import SuspendRequested
from repro.observability import (
    CLUSTER_PID,
    SCHEDULER_PID,
    TelemetryConfig,
    perfetto_trace,
    validate_trace,
    write_trace,
)
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import build_manager
from repro.snapshot import suspend
from repro.snapshot.state import read_snapshot, write_snapshot
from repro.workload.trinity import TrinityWorkloadGenerator


@pytest.fixture(autouse=True)
def _clean_suspend_state():
    previous = {
        sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    suspend.reset()
    yield
    suspend.reset()
    for sig, handler in previous.items():
        signal.signal(sig, handler)


def build(strategy="shared_backfill", jobs=60, nodes=16, seed=7,
          decisions=True):
    rng = np.random.default_rng(seed)
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.85, offered_load=1.3
    ).generate(jobs, nodes, rng)
    config = SchedulerConfig(strategy=strategy)
    if decisions:
        config.telemetry = TelemetryConfig(enabled=True)
    return build_manager(trace, num_nodes=nodes, strategy=strategy,
                         config=config)


class TestExportSchema:
    def test_export_is_valid_and_loadable(self, tmp_path):
        manager = build()
        result = manager.run()
        path = write_trace(
            tmp_path / "trace.json", perfetto_trace(result, manager.decisions)
        )
        document = json.loads(path.read_text(encoding="utf-8"))
        assert validate_trace(document) == []
        assert document["displayTimeUnit"] == "ms"

    def test_every_job_appears_on_the_cluster_track(self):
        manager = build(jobs=30)
        result = manager.run()
        document = perfetto_trace(result, manager.decisions)
        complete = [
            e for e in document["traceEvents"]
            if e["ph"] == "X" and e["pid"] == CLUSTER_PID
        ]
        jobs_seen = {
            e["args"]["job"] for e in complete if "job" in e.get("args", {})
        }
        assert len(jobs_seen) == 30

    def test_decision_records_become_scheduler_instants(self):
        manager = build()
        result = manager.run()
        document = perfetto_trace(result, manager.decisions)
        instants = [
            e for e in document["traceEvents"]
            if e["ph"] == "i" and e["pid"] == SCHEDULER_PID
        ]
        assert instants
        assert any(e["name"].startswith("reject") for e in instants)

    def test_export_without_decisions_still_valid(self):
        manager = build(decisions=False)
        result = manager.run()
        document = perfetto_trace(result)
        assert validate_trace(document) == []
        assert all(
            e["pid"] == CLUSTER_PID
            for e in document["traceEvents"] if e["ph"] == "X"
        )

    @pytest.mark.parametrize("strategy", ("fcfs", "easy_backfill",
                                          "shared_backfill", "conservative"))
    def test_lanes_never_overlap(self, strategy):
        """The validator's core property across strategy families:
        complete events on one (pid, tid) lane are non-overlapping."""
        manager = build(strategy=strategy, jobs=80)
        result = manager.run()
        assert validate_trace(perfetto_trace(result, manager.decisions)) == []

    def test_validator_flags_broken_documents(self):
        assert validate_trace({}) != []
        assert validate_trace({"traceEvents": []}) != []
        bad_phase = {"traceEvents": [
            {"name": "x", "ph": "?", "pid": 1, "tid": 1, "ts": 0}
        ]}
        assert validate_trace(bad_phase) != []
        overlap = {"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 10},
            {"name": "b", "ph": "X", "pid": 1, "tid": 1, "ts": 5, "dur": 10},
        ]}
        assert validate_trace(overlap) != []


class TestResumeStability:
    def test_trace_identical_across_suspend_resume(self, tmp_path):
        """pids/tids (and everything else) are stable across a
        mid-run suspension: the resumed run exports the same bytes."""
        baseline_manager = build()
        baseline = perfetto_trace(
            baseline_manager.run(), baseline_manager.decisions
        )

        manager = build()
        polls = {"n": 0}

        def poll():
            polls["n"] += 1
            return polls["n"] > 80

        with pytest.raises(SuspendRequested):
            manager.run(suspend_poll=poll)
        path = write_snapshot(manager, tmp_path / "run.snap",
                              spec_hash="trace")
        restored = read_snapshot(path, expect_spec_hash="trace")
        resumed = perfetto_trace(restored.run(), restored.decisions)

        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            baseline, sort_keys=True
        )

    def test_resumed_trace_validates(self, tmp_path):
        manager = build(strategy="easy_backfill")
        polls = {"n": 0}
        with pytest.raises(SuspendRequested):
            manager.run(suspend_poll=lambda: [
                polls.__setitem__("n", polls["n"] + 1), polls["n"] > 40
            ][1])
        path = write_snapshot(manager, tmp_path / "e.snap", spec_hash="v")
        restored = read_snapshot(path, expect_spec_hash="v")
        document = perfetto_trace(restored.run(), restored.decisions)
        assert validate_trace(document) == []
