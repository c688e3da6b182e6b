"""Unit tests for the observability package: histogram primitives,
the telemetry hub, the decision trace (including reason-code
discipline), the hot-loop profiler, and sidecar/stats aggregation.

The reason-code completeness property lives here too: every rejection
record emitted by a live simulation carries exactly one code from
:data:`REASON_CODES`, and the hub's ``reject.*`` counters agree with
the trace record-for-record (the two cannot drift apart).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.strategy import all_strategy_names
from repro.engine.events import EventKind
from repro.errors import ConfigError
from repro.observability import (
    DecisionTrace,
    Histogram,
    HotLoopProfiler,
    REASON_CODES,
    TelemetryConfig,
    TelemetryHub,
    aggregate_store,
    count_histogram,
    merge_hub_dicts,
    read_telemetry_sidecars,
    size_class_labels,
    size_class_of,
    write_telemetry_sidecar,
)
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import build_manager
from repro.workload.trinity import TrinityWorkloadGenerator


def build(strategy="shared_backfill", jobs=60, nodes=16, seed=7,
          telemetry=None):
    rng = np.random.default_rng(seed)
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.85, offered_load=1.5
    ).generate(jobs, nodes, rng)
    config = SchedulerConfig(strategy=strategy)
    if telemetry is not None:
        config.telemetry = telemetry
    return build_manager(trace, num_nodes=nodes, strategy=strategy,
                         config=config)


ARMED = TelemetryConfig(enabled=True, profile=True)


# ----------------------------------------------------------------------
# Histogram primitives
# ----------------------------------------------------------------------
class TestHistogram:
    def test_observe_buckets_by_upper_edge(self):
        hist = Histogram((1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 10.0, 99.0, 1000.0):
            hist.observe(value)
        # bucket i counts values <= edges[i]; the last is overflow
        assert hist.counts == [2, 2, 1, 1]
        assert hist.count == 6
        assert hist.total == pytest.approx(1115.5)

    def test_merge_requires_identical_edges(self):
        a = Histogram((1.0, 2.0))
        b = Histogram((1.0, 3.0))
        with pytest.raises(ConfigError):
            a.merge(b)

    def test_round_trip_and_merge(self):
        a = Histogram((1.0, 2.0))
        b = Histogram((1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        restored = Histogram.from_dict(a.as_dict())
        assert restored.as_dict() == a.as_dict()
        assert restored.count == 3

    def test_count_histogram_sorted_string_keys(self):
        assert count_histogram([2, 0, 2, 10, 0]) == {
            "0": 2, "2": 2, "10": 1,
        }

    def test_size_classes(self):
        labels = size_class_labels((2, 8))
        assert labels == ["1-2", "3-8", "9+"]
        assert size_class_of(1, (2, 8)) == "1-2"
        assert size_class_of(8, (2, 8)) == "3-8"
        assert size_class_of(9, (2, 8)) == "9+"


# ----------------------------------------------------------------------
# TelemetryConfig
# ----------------------------------------------------------------------
class TestTelemetryConfig:
    def test_defaults_are_inert(self):
        config = TelemetryConfig()
        assert not config.enabled
        assert not config.profile
        assert config.decisions_path is None

    def test_round_trip(self):
        config = TelemetryConfig(
            enabled=True, profile=True, decisions_path="d.jsonl"
        )
        restored = TelemetryConfig.from_dict(config.to_dict())
        assert restored == config

    def test_from_dict_rejects_unknown_keys(self):
        # The decision-trace buffering knobs are DecisionTrace
        # constants now; a spec dict still carrying one is refused.
        for key in ("nope", "ring", "flush_every", "rotate_bytes", "keep"):
            with pytest.raises(ConfigError):
                TelemetryConfig.from_dict({key: 1})


# ----------------------------------------------------------------------
# TelemetryHub
# ----------------------------------------------------------------------
class TestTelemetryHub:
    def test_counters_gauges_histograms(self):
        hub = TelemetryHub()
        hub.inc("a")
        hub.inc("a", 2)
        hub.set_gauge("g", 3.5)
        hub.observe("wait", 12.0)
        payload = hub.as_dict()
        assert payload["counters"]["a"] == 3
        assert payload["gauges"]["g"] == 3.5
        assert payload["histograms"]["wait"]["count"] == 1

    def test_merge_semantics(self):
        a, b = TelemetryHub(), TelemetryHub()
        a.inc("n")
        b.inc("n", 4)
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 2.0)
        a.observe("h", 5.0)
        b.observe("h", 500.0)
        a.merge(b)
        payload = a.as_dict()
        assert payload["counters"]["n"] == 5
        assert payload["gauges"]["g"] == 2.0  # last writer wins
        assert payload["histograms"]["h"]["count"] == 2

    def test_merge_hub_dicts_round_trip(self):
        a, b = TelemetryHub(), TelemetryHub()
        a.inc("x")
        b.inc("x")
        b.observe("h", 1.0)
        merged = merge_hub_dicts([a.as_dict(), b.as_dict()])
        assert merged["counters"]["x"] == 2
        assert merged["histograms"]["h"]["count"] == 1

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ConfigError):
            TelemetryHub.from_dict({"counters": "nope"})


# ----------------------------------------------------------------------
# DecisionTrace
# ----------------------------------------------------------------------
class TestDecisionTrace:
    def test_unknown_reason_code_raises(self):
        trace = DecisionTrace()
        with pytest.raises(ConfigError):
            trace.reject(0.0, "placement", 1, "made_up_code")

    def test_every_documented_code_is_emittable(self):
        trace = DecisionTrace()
        for code in REASON_CODES:
            trace.reject(0.0, "placement", 1, code)
        assert trace.emitted == len(REASON_CODES)

    def test_streak_suppression(self):
        """The same (job, stage) failing with the same code records
        once per streak; a code change, accept or lifecycle event
        restarts the streak."""
        trace = DecisionTrace()
        hub = trace.hub
        for _ in range(5):
            trace.reject(0.0, "exclusive", 1, "insufficient_idle")
        assert trace.emitted == 1
        assert trace.suppressed == 4
        # The hub counter mirrors the record stream (streak starts);
        # the elided repeats are accounted by `suppressed`.
        assert hub.as_dict()["counters"][
            "reject.exclusive.insufficient_idle"
        ] == 1
        # A different code for the same job/stage is a new decision.
        trace.reject(1.0, "exclusive", 1, "reservation_collision")
        assert trace.emitted == 2
        # A lifecycle transition resets the streak.
        trace.lifecycle(2.0, 1, "requeued")
        trace.reject(3.0, "exclusive", 1, "reservation_collision")
        assert [r["type"] for r in trace.records] == [
            "reject", "reject", "lifecycle", "reject",
        ]
        # Another job's streak is independent.
        trace.reject(3.0, "exclusive", 2, "insufficient_idle")
        assert trace.records[-1]["job"] == 2

    def test_ring_drops_oldest_but_keeps_counting(self):
        trace = DecisionTrace(ring=4)
        for i in range(10):
            trace.event(float(i), "tick")
        assert len(trace.records) == 4
        assert trace.emitted == 10
        assert trace.dropped == 6
        assert [r["t"] for r in trace.records] == [6.0, 7.0, 8.0, 9.0]

    def test_jsonl_flush_and_summary(self, tmp_path):
        path = tmp_path / "d.jsonl"
        trace = DecisionTrace(path=path, flush_every=2)
        trace.event(0.0, "a")
        trace.event(1.0, "b")  # second record triggers the flush
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]
        summary = trace.summary()
        assert summary["emitted"] == 2
        assert summary["path"] == str(path)

    def test_rotation_bounds_disk(self, tmp_path):
        path = tmp_path / "d.jsonl"
        trace = DecisionTrace(path=path, flush_every=1, rotate_bytes=200,
                              keep=2)
        for i in range(60):
            trace.event(float(i), "tick", padding="x" * 40)
        trace.close()
        generations = sorted(p.name for p in tmp_path.iterdir())
        assert path.name in generations
        assert f"{path.name}.1" in generations
        assert f"{path.name}.{4}" not in generations  # keep=2 bounds it

    def test_pickle_round_trip_preserves_sequence(self):
        import pickle

        trace = DecisionTrace(ring=16)
        trace.event(0.0, "a")
        restored = pickle.loads(pickle.dumps(trace))
        restored.event(1.0, "b")
        assert [r["seq"] for r in restored.records] == [1, 2]


# ----------------------------------------------------------------------
# HotLoopProfiler
# ----------------------------------------------------------------------
class TestHotLoopProfiler:
    def test_record_and_report(self):
        prof = HotLoopProfiler()
        prof.record_event(EventKind.JOB_FINISH, 1_000_000)
        prof.record_event(EventKind.JOB_FINISH, 3_000_000)
        prof.record_phase("placement", 500_000)
        payload = prof.as_dict()
        assert payload["events"]["JOB_FINISH"]["calls"] == 2
        assert payload["events"]["JOB_FINISH"]["wall_ms"] == pytest.approx(4.0)
        assert payload["phases"]["placement"]["calls"] == 1
        assert payload["total_event_ms"] == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Live-simulation reason-code completeness
# ----------------------------------------------------------------------
class TestReasonCodeCompleteness:
    @pytest.mark.parametrize("strategy", all_strategy_names())
    def test_rejects_are_coded_and_counted(self, strategy):
        """Every reject record a real run emits carries a documented
        code, and the hub counters match the trace exactly."""
        manager = build(strategy=strategy, telemetry=ARMED)
        manager.run()
        records = list(manager.decisions.records)
        rejects = [r for r in records if r["type"] == "reject"]
        # An offered load of 1.5 on 16 nodes guarantees contention.
        assert rejects, f"{strategy}: no rejection was ever recorded"
        for record in rejects:
            assert record["code"] in REASON_CODES
            assert record["stage"] in (
                "exclusive", "join", "open_shared", "reserve", "admission"
            )
        # Hub `reject.*` counters mirror the record stream (one coded
        # record per decision change); streak repeats land in the
        # `suppressed` tally instead.  With nothing dropped from the
        # ring, counters and records must agree code-for-code.
        counters = manager.decisions.hub.as_dict()["counters"]
        per_code: dict[str, int] = {}
        for record in rejects:
            key = f"reject.{record['stage']}.{record['code']}"
            per_code[key] = per_code.get(key, 0) + 1
        if manager.decisions.dropped == 0:
            reject_counters = {
                name: count for name, count in counters.items()
                if name.startswith("reject.")
            }
            assert reject_counters == per_code

    def test_shared_strategy_emits_sharing_codes(self):
        manager = build(strategy="shared_backfill", jobs=120,
                        telemetry=ARMED)
        manager.run()
        codes = {
            r["code"] for r in manager.decisions.records
            if r["type"] == "reject"
        }
        # The big three of a contended shared cluster.
        assert "insufficient_idle" in codes
        assert codes & {"not_shareable", "no_resident_groups",
                        "interference_cap", "no_exact_cover", "memory"}

    def test_accepts_carry_kind_and_nodes(self):
        manager = build(telemetry=ARMED)
        manager.run()
        accepts = [
            r for r in manager.decisions.records if r["type"] == "accept"
        ]
        assert accepts
        for record in accepts:
            assert record["kind"] in ("exclusive", "shared")
            assert record["nodes"] >= 1

    def test_lifecycle_records_cover_every_job(self):
        manager = build(jobs=40, telemetry=ARMED)
        manager.run()
        started = {
            r["job"] for r in manager.decisions.records
            if r["type"] == "lifecycle" and r["state"] == "started"
        }
        assert len(started) == 40


# ----------------------------------------------------------------------
# Hub/profile summaries attach to the manager, never the result
# ----------------------------------------------------------------------
class TestManagerTelemetry:
    def test_disarmed_manager_holds_none(self):
        manager = build()
        assert manager.decisions is None
        assert manager.hot_profiler is None
        assert manager.telemetry_summary() is None

    def test_armed_summary_sections(self):
        manager = build(telemetry=ARMED)
        manager.run()
        summary = manager.telemetry_summary()
        assert set(summary) == {"metrics", "decisions", "profile"}
        assert summary["metrics"]["counters"]["sim.runs"] == 1
        assert summary["decisions"]["emitted"] > 0
        assert summary["profile"]["events"]  # at least one handler timed

    def test_profiler_attributes_known_phases(self):
        manager = build(telemetry=ARMED)
        manager.run()
        phases = manager.telemetry_summary()["profile"]["phases"]
        assert "placement" in phases
        assert "dispatch" in phases


# ----------------------------------------------------------------------
# Sidecars and campaign aggregation
# ----------------------------------------------------------------------
class TestSidecars:
    def test_write_read_merge(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        hub = TelemetryHub()
        hub.inc("accept.placement.exclusive", 3)
        for run_id, wall in (("aaaa", 1.5), ("bbbb", 2.5)):
            write_telemetry_sidecar(
                store / "telemetry", run_id,
                {
                    "run_id": run_id,
                    "exec": {"wall_clock_s": wall, "resume_count": 1,
                             "restore_wall_s": 0.25,
                             "events_dispatched": 10},
                    "metrics": hub.as_dict(),
                },
            )
        sidecars = read_telemetry_sidecars(store)
        assert set(sidecars) == {"aaaa", "bbbb"}
        merged = aggregate_store(store)["telemetry"]
        assert merged["runs"] == 2
        assert merged["exec"]["wall_clock_s"] == pytest.approx(4.0)
        assert merged["exec"]["resume_count"] == 2
        assert merged["metrics"]["counters"][
            "accept.placement.exclusive"
        ] == 6

    def test_torn_sidecar_degrades_quietly(self, tmp_path):
        directory = tmp_path / "telemetry"
        directory.mkdir()
        (directory / "bad.telemetry.json").write_text("{not json")
        assert read_telemetry_sidecars(tmp_path) == {}
