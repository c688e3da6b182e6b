"""Unit tests for the crash-diagnostics subsystem.

Covers the simulator's flight ring, the watchdogs, the structured engine
errors, crash-info attachment, the quarantine manifest, and — most
importantly — the inertness guarantee: diagnostics at default settings
must not change any simulation output.
"""

import pickle

import numpy as np
import pytest

from repro.diagnostics import (
    CrashInfo,
    DiagnosticsConfig,
    QuarantinedRun,
    attach_crash_info,
    flight_records,
    load_quarantine_manifest,
    snapshot_manager,
    write_quarantine_manifest,
)
from repro.engine.events import EventKind
from repro.engine.simulator import DEFAULT_MAX_EVENTS, Simulator
from repro.errors import (
    ConfigError,
    MaxEventsError,
    ReplayError,
    SimulationError,
    WatchdogError,
)
from repro.metrics.summary import summarize
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import run_simulation
from repro.workload.trinity import TrinityWorkloadGenerator


def small_trace(jobs=40, nodes=16, seed=3):
    rng = np.random.default_rng(seed)
    return TrinityWorkloadGenerator().generate(jobs, nodes, rng)


class TestDiagnosticsConfig:
    def test_defaults_are_inert(self):
        config = DiagnosticsConfig()
        assert config.wall_clock_limit_s is None
        assert config.stall_event_limit is None
        assert config.max_events is None

    def test_roundtrip(self):
        config = DiagnosticsConfig(
            ring_size=8, wall_clock_limit_s=5.0, stall_event_limit=100
        )
        assert DiagnosticsConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown diagnostics"):
            DiagnosticsConfig.from_dict({"ringsize": 4})

    @pytest.mark.parametrize("kwargs", [
        {"ring_size": 0},
        {"wall_clock_limit_s": -1.0},
        {"stall_event_limit": 0},
        {"max_events": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DiagnosticsConfig(**kwargs)

    def test_scheduler_config_converts_dict(self):
        config = SchedulerConfig(diagnostics={"max_events": 10})
        assert isinstance(config.diagnostics, DiagnosticsConfig)
        assert config.diagnostics.max_events == 10


def _ran(sim, kind, times, payload=None):
    for time in times:
        sim.schedule(time, kind, payload)
    sim.run({})
    return sim


class _Holder:
    """The one attribute of a manager a crash report reads first."""

    def __init__(self, sim):
        self.sim = sim


class TestFlightRecorder:
    """The simulator's flight ring and the records read from it."""

    def test_ring_is_bounded(self):
        sim = _ran(
            Simulator(ring_size=4), EventKind.JOB_SUBMIT, range(10)
        )
        assert len(sim.flight_ring) == 4
        tail = flight_records(sim)
        assert [e["time"] for e in tail] == [6.0, 7.0, 8.0, 9.0]
        assert [e["seq"] for e in tail] == [6, 7, 8, 9]
        info = CrashInfo.from_dict(
            attach_crash_info(RuntimeError("x"), _Holder(sim)).as_dict()
        )
        assert info.flight_dropped == 6
        assert info.last_event == tail[-1]

    def test_last_and_partial_tail(self):
        sim = Simulator(ring_size=8)
        assert flight_records(sim) == []
        _ran(sim, EventKind.JOB_FINISH, [0.0, 1.0, 2.0])
        assert flight_records(sim)[-1]["time"] == 2.0
        assert [e["time"] for e in flight_records(sim, last=2)] == [1.0, 2.0]

    def test_event_entries_are_jsonable(self):
        sim = _ran(
            Simulator(ring_size=2), EventKind.SCHEDULER_PASS, [1.5], "tick"
        )
        assert sim.flight_ring[-1].kind is EventKind.SCHEDULER_PASS
        (entry,) = flight_records(sim)
        assert entry == {
            "time": 1.5, "kind": "SCHEDULER_PASS", "seq": 0, "label": "tick",
        }

    def test_ring_off_records_nothing(self):
        sim = _ran(Simulator(), EventKind.JOB_SUBMIT, [1.0])
        assert sim.flight_ring is None
        assert flight_records(sim) == []
        assert sim.last_event_time == 1.0
        info = attach_crash_info(RuntimeError("x"), _Holder(sim))
        assert (info.last_event, info.flight_events, info.flight_dropped) == (
            None, [], 0,
        )



class TestWatchdogs:
    def test_progress_guard_catches_zero_delay_loop(self):
        sim = Simulator(stall_event_limit=25)

        def respawn(s, event):
            s.schedule(s.now, EventKind.SCHEDULER_PASS)

        sim.schedule(1.0, EventKind.SCHEDULER_PASS)
        with pytest.raises(WatchdogError, match="progress watchdog") as info:
            sim.run({EventKind.SCHEDULER_PASS: respawn})
        assert info.value.kind == "sim_progress"
        assert info.value.sim_time == 1.0
        assert info.value.events_dispatched == 26

    def test_progress_guard_tolerates_advancing_clock(self):
        sim = Simulator(stall_event_limit=2)
        for i in range(10):
            sim.schedule(float(i), EventKind.JOB_SUBMIT)
        sim.run({})
        assert sim.events_dispatched == 10

    def test_wall_clock_watchdog_fires(self):
        sim = Simulator(wall_clock_limit_s=0.0)
        sim.schedule(1.0, EventKind.JOB_SUBMIT)
        with pytest.raises(WatchdogError, match="wall-clock watchdog") as info:
            sim.run({})
        assert info.value.kind == "wall_clock"

    def test_wall_clock_deadline_reset_between_runs(self):
        sim = Simulator(wall_clock_limit_s=0.0)
        sim.schedule(1.0, EventKind.JOB_SUBMIT)
        with pytest.raises(WatchdogError):
            sim.run({})
        assert sim._wall_deadline is None

    def test_watchdog_through_manager(self):
        config = SchedulerConfig(
            diagnostics={"wall_clock_limit_s": 0.0}
        )
        with pytest.raises(WatchdogError) as info:
            run_simulation(small_trace(), num_nodes=16, config=config)
        assert isinstance(info.value.crash_info, CrashInfo)


class TestMaxEvents:
    def test_default_budget_is_generous(self):
        assert Simulator().max_events == DEFAULT_MAX_EVENTS

    def test_carries_structured_fields(self):
        sim = Simulator(max_events=5, ring_size=8)
        for i in range(10):
            sim.schedule(float(i), EventKind.JOB_SUBMIT)
        with pytest.raises(MaxEventsError, match="max_events=5") as info:
            sim.run({})
        err = info.value
        assert isinstance(err, SimulationError)  # legacy contract
        assert err.max_events == 5
        assert err.events_dispatched == 6
        assert err.sim_time == 5.0
        # The ring's context travels with the error.
        assert [e["time"] for e in err.flight_tail] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_through_manager_config(self):
        config = SchedulerConfig(diagnostics={"max_events": 30})
        with pytest.raises(MaxEventsError) as info:
            run_simulation(small_trace(), num_nodes=16, config=config)
        assert info.value.crash_info.events_dispatched == 31


class TestCrashInfo:
    def trip(self):
        config = SchedulerConfig(diagnostics={"max_events": 30})
        with pytest.raises(MaxEventsError) as info:
            run_simulation(small_trace(), num_nodes=16, config=config)
        return info.value

    def test_attached_by_manager(self):
        err = self.trip()
        info = err.crash_info
        assert info.error_type == "MaxEventsError"
        assert info.error_message == str(err)
        assert info.flight_events
        assert info.last_event == info.flight_events[-1]

    def test_snapshot_captures_cluster_state(self):
        snapshot = self.trip().crash_info.snapshot
        assert snapshot["cluster_nodes"] == 16
        assert snapshot["events_dispatched"] == 31
        assert snapshot["jobs_total"] == 40
        assert isinstance(snapshot["job_states"], dict)

    def test_attach_is_idempotent(self):
        err = self.trip()
        original = err.crash_info
        assert attach_crash_info(err) is original

    def test_survives_pickling(self):
        err = self.trip()
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, MaxEventsError)
        assert str(clone) == str(err)
        assert clone.crash_info.replay_signature() == (
            err.crash_info.replay_signature()
        )

    def test_replay_signature_subset(self):
        info = self.trip().crash_info
        signature = info.replay_signature()
        assert set(signature) == set(CrashInfo.REPLAY_KEYS)
        assert "snapshot" not in signature  # not deterministic enough

    def test_snapshot_of_foreign_object_is_safe(self):
        assert snapshot_manager(object()) == {}


class TestQuarantineManifest:
    def runs(self):
        return [
            QuarantinedRun(
                run_id="abc123", label="easy seed=1", incidents=2,
                error="WatchdogError: wall-clock watchdog", bundle="/x/b.json",
            )
        ]

    def test_roundtrip(self, tmp_path):
        path = write_quarantine_manifest(
            tmp_path / "q.json", "camp", self.runs()
        )
        data = load_quarantine_manifest(path)
        assert data["campaign"] == "camp"
        assert data["quarantined"] == 1
        assert data["runs"][0]["run_id"] == "abc123"
        assert data["runs"][0]["bundle"] == "/x/b.json"

    def test_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "not.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ReplayError, match="not a quarantine manifest"):
            load_quarantine_manifest(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ReplayError, match="cannot read"):
            load_quarantine_manifest(tmp_path / "absent.json")


class TestInertness:
    """Diagnostics must never change what a simulation computes."""

    def test_recorder_does_not_change_results(self):
        base = run_simulation(
            small_trace(), num_nodes=16,
            config=SchedulerConfig(diagnostics={"flight_recorder": False}),
        )
        recorded = run_simulation(
            small_trace(), num_nodes=16,
            config=SchedulerConfig(diagnostics={"ring_size": 4}),
        )
        assert summarize(base).as_dict() == summarize(recorded).as_dict()
        assert base.events_dispatched == recorded.events_dispatched

    def test_armed_watchdogs_do_not_change_results(self):
        base = run_simulation(small_trace(), num_nodes=16)
        guarded = run_simulation(
            small_trace(), num_nodes=16,
            config=SchedulerConfig(diagnostics={
                "wall_clock_limit_s": 3600.0,
                "stall_event_limit": 100_000,
            }),
        )
        assert summarize(base).as_dict() == summarize(guarded).as_dict()

    def test_manager_without_recorder_has_none(self):
        from repro.cluster.machine import Cluster
        from repro.slurm.manager import WorkloadManager

        config = SchedulerConfig(diagnostics={"flight_recorder": False})
        manager = WorkloadManager(Cluster.homogeneous(4), config=config)
        assert manager.sim.flight_ring is None
