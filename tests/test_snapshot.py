"""Tests for the preemption-safe snapshot subsystem.

The headline property: a simulation suspended mid-run, serialised,
restored and run to completion produces results byte-identical to the
same simulation executed uninterrupted — across every scheduler
strategy, with and without the resilience layer.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import signal
import sys

import numpy as np
import pytest

from repro.analysis.experiments import default_campaign
from repro.core.strategy import all_strategy_names
from repro.engine.events import EventKind
from repro.engine.simulator import Simulator
from repro.errors import ConfigError, SnapshotError, SuspendRequested
from repro.metrics.summary import summarize
from repro.slurm.config import SchedulerConfig
from repro.slurm.manager import WorkloadManager, build_manager
from repro.snapshot import suspend
from repro.snapshot.auto import AutoSnapshotter, parse_snapshot_every
from repro.snapshot.guards import GuardTrip, ResourceGuards
from repro.snapshot.state import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    read_snapshot,
    read_snapshot_header,
    snapshot_bytes,
    snapshot_path_for,
    write_snapshot,
)
from repro.workload.trinity import TrinityWorkloadGenerator


@pytest.fixture(autouse=True)
def _clean_suspend_state():
    """Keep the process-wide suspend flag and signal handlers pristine."""
    previous = {
        sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    suspend.reset()
    yield
    suspend.reset()
    for sig, handler in previous.items():
        signal.signal(sig, handler)


def build(strategy="shared_backfill", jobs=60, nodes=16, seed=7, resilience=None):
    rng = np.random.default_rng(seed)
    trace = TrinityWorkloadGenerator(
        share_obeys_app=False, share_fraction=0.85, offered_load=1.3
    ).generate(jobs, nodes, rng)
    config = SchedulerConfig(strategy=strategy, resilience=resilience)
    return build_manager(trace, num_nodes=nodes, strategy=strategy, config=config)


def fingerprint(result):
    """Everything a result byte-comparison cares about."""
    return (
        json.dumps(summarize(result).as_dict(), sort_keys=True),
        [repr(record) for record in result.accounting],
        result.events_dispatched,
        result.scheduler_passes,
    )


# ----------------------------------------------------------------------
# Round-trip property across every strategy
# ----------------------------------------------------------------------
class TestRoundTripProperty:
    @pytest.mark.parametrize("strategy", sorted(all_strategy_names()))
    def test_mid_run_snapshot_restores_bit_identical(self, strategy):
        baseline = fingerprint(build(strategy).run())

        manager = build(strategy)
        manager.sim.run(manager.handlers(), until=4000.0)
        assert manager.sim.heap, "snapshot point must be mid-run"
        restored = pickle.loads(snapshot_bytes(manager))
        assert isinstance(restored, WorkloadManager)
        assert fingerprint(restored.run()) == baseline

    def test_resilience_state_survives_snapshot(self):
        from repro.resilience import ResilienceConfig

        resil = ResilienceConfig(
            node_mtbf_hours=200.0, checkpoint="daly", seed=3
        )
        baseline = fingerprint(build(resilience=resil).run())
        manager = build(resilience=resil)
        manager.sim.run(manager.handlers(), until=6000.0)
        restored = pickle.loads(snapshot_bytes(manager))
        assert fingerprint(restored.run()) == baseline


# ----------------------------------------------------------------------
# Engine-level snapshot hooks
# ----------------------------------------------------------------------
#: ``(len, sha256)`` of ``snapshot_bytes`` per Python minor version,
#: of :func:`deep_manager` run to t=20000.  Kept caches must not reach
#: the bytes, nor what the flight ring holds (it pickles empty).
SNAPSHOT_PINS = {
    (3, 11): {
        "mid_run": (
            117_341,
            "0dd8c5162165d24bab8a42af60d171f284552c1dc31060aa403179b0001bf33a",
        ),
    },
}


def deep_manager(diagnostics=None):
    """A deep-queue shared-backfill manager: 200 jobs at load 1.5 on
    128 nodes, with the default diagnostics settings unless
    *diagnostics* are given."""
    trace = default_campaign(
        num_jobs=200, cluster_nodes=128, offered_load=1.5, seed=7
    )
    config = (
        None if diagnostics is None
        else SchedulerConfig(strategy="shared_backfill", diagnostics=diagnostics)
    )
    return build_manager(
        trace, num_nodes=128, strategy="shared_backfill", config=config
    )


def _pin(data: bytes) -> tuple[int, str]:
    return len(data), hashlib.sha256(data).hexdigest()


class TestSnapshotBytesPinned:
    def _mid_run(self, diagnostics=None):
        manager = deep_manager(diagnostics)
        manager.run(until=20_000.0)
        assert len(manager.queue) > 0
        return manager

    def test_bytes_match_pin(self):
        pins = SNAPSHOT_PINS.get(sys.version_info[:2])
        if pins is None:
            pytest.skip(f"no snapshot pin recorded for Python {sys.version_info[:2]}")
        assert _pin(snapshot_bytes(self._mid_run())) == pins["mid_run"]

    def test_restored_manager_pickles_to_the_same_bytes(self):
        # A restore must rebuild the state as pickle's default restore
        # does (its attribute names interned), or a restored manager's
        # next snapshot differs from the one it came from, and a chain
        # resumed from a snapshot writes later snapshots unlike an
        # uninterrupted chain.
        manager = self._mid_run()
        data = snapshot_bytes(manager)
        # The flight ring pickles empty, at its capacity: what it holds
        # never reaches the bytes.
        ring = manager.sim.flight_ring
        held = list(ring)
        assert held
        ring.clear()
        assert snapshot_bytes(manager) == data
        ring.extend(held)
        restored = pickle.loads(data)
        assert not restored.sim.flight_ring
        assert restored.sim.flight_ring.maxlen == ring.maxlen
        assert snapshot_bytes(restored) == data
        restored.run(until=30_000.0)
        manager.run(until=30_000.0)
        never_paused = deep_manager()
        never_paused.run(until=30_000.0)
        assert snapshot_bytes(restored) == snapshot_bytes(manager)
        assert snapshot_bytes(restored) == snapshot_bytes(never_paused)

    def test_restore_rebuilds_caches_and_runs_on_identically(self):
        manager = self._mid_run()
        restored = pickle.loads(snapshot_bytes(manager))
        # The kept priority terms are rebuilt bit for bit.
        assert [terms[:-1] for terms in restored.queue._terms.values()] == [
            terms[:-1] for terms in manager.queue._terms.values()
        ]
        kept = manager.priority._user_terms
        assert restored.priority._user_terms
        for user, term in restored.priority._user_terms.items():
            assert term.hex() == kept[user].hex()
        # The accounting, every stored priority and the summary match
        # a run never paused at all.
        uninterrupted = deep_manager()
        expected = fingerprint(uninterrupted.run())
        assert fingerprint(restored.run()) == expected
        assert fingerprint(manager.run()) == expected
        assert [repr(record) for record in restored.accounting] == [
            repr(record) for record in uninterrupted.accounting
        ]
        assert [job.priority.hex() for job in restored.jobs.values()] == [
            job.priority.hex() for job in uninterrupted.jobs.values()
        ]

    def test_snapshot_between_passes_matches_an_eager_write_back(self):
        # A pass keeps its priorities unwritten; pickling the manager
        # first writes them, so the bytes equal those of a queue that
        # writes every pass's priorities at once.
        def eager(manager):
            queue = manager.queue
            queue.ordered = lambda now: queue.priority.order_terms(
                queue._terms.values(), now
            )
            return manager

        lazy, eager_manager = deep_manager(), eager(deep_manager())
        for manager in (lazy, eager_manager):
            manager.sim.run(manager.handlers(), until=20_000.0)
        queued = list(lazy.queue)
        assert lazy.queue._unwritten is not None
        assert [job.priority for job in queued] != [
            job.priority for job in eager_manager.queue
        ], "the pass must have left priorities unwritten"
        assert snapshot_bytes(lazy) == snapshot_bytes(eager_manager)
        assert [job.priority for job in queued] == [
            job.priority for job in eager_manager.queue
        ]

    def test_pass_leaves_unplaced_priorities_until_a_flush(self):
        # A pass writes the priority of each job it starts; the jobs it
        # does not place keep what they held until a flush writes what
        # an eager write-back at the pass would have.
        manager = deep_manager()
        priority = manager.priority
        passes = []
        schedule = manager.strategy.schedule

        def recording(ctx):
            held = [job.priority for job in ctx.pending]
            placements = schedule(ctx)
            passes.append((ctx, held, {p.job.job_id for p in placements}))
            return placements

        manager.strategy.schedule = recording
        checked = 0
        handlers = manager.handlers()
        while checked < 20:
            manager.sim.step(handlers)
            if not passes:
                continue
            ctx, held, placed = passes.pop()
            eager = {
                key[2]: -key[0]
                for key in priority.sorted_keys(
                    map(priority.terms, ctx.pending), ctx.now
                )
            }
            unplaced = [
                (job, was) for job, was in zip(ctx.pending, held)
                if job.job_id not in placed
            ]
            if not placed or not unplaced:
                continue
            assert any(eager[job.job_id] != was for job, was in unplaced)
            for job in ctx.pending:
                if job.job_id in placed:
                    assert job.priority == eager[job.job_id]
            assert [job.priority for job, _ in unplaced] == [
                was for _, was in unplaced
            ]
            manager.queue.flush()
            assert [job.priority for job, _ in unplaced] == [
                eager[job.job_id] for job, _ in unplaced
            ]
            checked += 1

    @pytest.mark.parametrize(
        "restored", [False, True], ids=["continued", "restored"]
    )
    @pytest.mark.parametrize(
        "diagnostics", [None, {"flight_recorder": False}],
        ids=["ring-on", "ring-off"],
    )
    def test_paused_run_summarises_like_one_never_paused(
        self, diagnostics, restored
    ):
        # A pause ends with a metrics sample at t=20000, after the last
        # event; the continued run drops it, so no interval is split
        # and every series and summary float matches bit for bit,
        # whether the flight ring is kept or not and whether the run
        # goes on in the paused manager or in one restored from it
        # (whose ring starts empty).
        paused = self._mid_run(diagnostics)
        assert paused.collector.times[-1] == 20_000.0
        if restored:
            paused = pickle.loads(snapshot_bytes(paused))
        continued = paused.run()
        never_paused = deep_manager(diagnostics)
        baseline = never_paused.run()
        for name in ("times", "busy_nodes", "shared_nodes",
                     "queue_lengths", "work_rates"):
            assert getattr(paused.collector, name) == getattr(
                never_paused.collector, name
            ), name
        assert 20_000.0 not in paused.collector.times
        summary = summarize(continued).as_dict()
        expected = summarize(baseline).as_dict()
        for name in ("utilization", "comp_eff", "shared_nodes"):
            assert summary[name].hex() == expected[name].hex(), name
        assert summary == expected


def _round_trip(sim):
    return pickle.loads(pickle.dumps(sim, protocol=4))


class TestSimulatorSnapshot:
    def test_snapshot_restore_preserves_clock_and_queue(self):
        sim = Simulator()
        kind = list(EventKind)[0]
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, kind)
        sim.run({}, until=1.5)
        restored = _round_trip(sim)
        assert restored.now == sim.now
        assert len(restored.heap) == len(sim.heap)
        assert restored.events_dispatched == sim.events_dispatched
        restored.run({})
        assert restored.events_dispatched == 3

    def test_restore_rejects_foreign_pickles(self, tmp_path):
        from types import SimpleNamespace

        path = write_snapshot(
            SimpleNamespace(sim=Simulator()), tmp_path / "f.snap"
        )
        with pytest.raises(SnapshotError, match="not a WorkloadManager") as excinfo:
            WorkloadManager.restore(path)
        assert excinfo.value.reason == "format"

    def test_transient_state_not_pickled(self):
        sim = Simulator()
        sim.schedule(1.0, EventKind.CHECKPOINT)
        states = []
        sim.run({EventKind.CHECKPOINT: lambda s, e: states.append(s.__getstate__())})
        (state,) = states
        assert state["_running"] is False
        assert state["_stop_requested"] is False
        assert state["_wall_deadline"] is None

    def test_flight_ring_restores_empty_at_its_capacity(self):
        sim = Simulator(ring_size=2)
        kind = list(EventKind)[0]
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, kind)
        sim.run({}, until=2.5)
        assert [event.time for event in sim.flight_ring] == [1.0, 2.0]
        restored = _round_trip(sim)
        assert list(restored.flight_ring) == []
        assert restored.flight_ring.maxlen == 2
        assert restored.last_event_time == 2.0
        restored.run({})
        assert [event.time for event in restored.flight_ring] == [3.0]

    def test_suspend_poll_raises_at_event_boundary(self):
        manager = build()
        polls = {"n": 0}

        def poll():
            polls["n"] += 1
            return polls["n"] > 50

        with pytest.raises(SuspendRequested) as excinfo:
            manager.run(suspend_poll=poll)
        assert excinfo.value.events_dispatched == 50
        assert manager.sim.heap, "queue must survive the suspension"

    def test_suspended_run_resumes_bit_identical(self, tmp_path):
        baseline = fingerprint(build().run())
        manager = build()
        polls = {"n": 0}
        path = tmp_path / "run.snap"
        with pytest.raises(SuspendRequested):
            manager.run(suspend_poll=lambda: [
                polls.__setitem__("n", polls["n"] + 1), polls["n"] > 80
            ][1])
        write_snapshot(manager, path, spec_hash="abc")
        restored = read_snapshot(path, expect_spec_hash="abc")
        assert fingerprint(restored.run()) == baseline


# ----------------------------------------------------------------------
# Snapshot file format
# ----------------------------------------------------------------------
class TestSnapshotFile:
    def test_header_records_provenance(self, tmp_path):
        manager = build()
        manager.sim.run(manager.handlers(), until=2000.0)
        path = write_snapshot(manager, tmp_path / "x.snap", spec_hash="cafe")
        header = read_snapshot_header(path)
        assert header["format"] == SNAPSHOT_MAGIC
        assert header["version"] == SNAPSHOT_VERSION
        assert header["spec_hash"] == "cafe"
        assert header["sim_time"] == manager.sim.now
        assert header["events_dispatched"] == manager.sim.events_dispatched
        assert header["payload_bytes"] > 0

    def test_manager_snapshot_restore_methods(self, tmp_path):
        manager = build()
        manager.sim.run(manager.handlers(), until=2000.0)
        path = manager.snapshot(tmp_path / "m.snap", spec_hash="feed")
        restored = WorkloadManager.restore(path, expect_spec_hash="feed")
        assert isinstance(restored, WorkloadManager)
        assert restored.sim.now == manager.sim.now

    def test_rejects_non_snapshot_file(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b'{"format": "something-else"}\nxxxx')
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot_header(path)
        assert excinfo.value.reason == "format"
        path.write_bytes(b"\x80\x04 not json at all\n")
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot_header(path)
        assert excinfo.value.reason == "format"

    def test_rejects_version_mismatch(self, tmp_path):
        path = tmp_path / "v.snap"
        header = {"format": SNAPSHOT_MAGIC, "version": SNAPSHOT_VERSION + 1}
        path.write_bytes(json.dumps(header).encode() + b"\npayload")
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot_header(path)
        assert excinfo.value.reason == "version"

    def test_rejects_corrupt_payload(self, tmp_path):
        manager = build()
        path = write_snapshot(manager, tmp_path / "c.snap")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.reason == "checksum"

    def test_rejects_truncated_payload(self, tmp_path):
        manager = build()
        path = write_snapshot(manager, tmp_path / "t.snap")
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.reason == "checksum"

    def test_rejects_spec_hash_mismatch(self, tmp_path):
        manager = build()
        path = write_snapshot(manager, tmp_path / "s.snap", spec_hash="old")
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot(path, expect_spec_hash="new")
        assert excinfo.value.reason == "spec_hash"

    def test_missing_file_is_unreadable(self, tmp_path):
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot_header(tmp_path / "absent.snap")
        assert excinfo.value.reason == "unreadable"

    def test_snapshot_path_naming(self, tmp_path):
        path = snapshot_path_for(tmp_path, "deadbeef")
        assert path == tmp_path / "deadbeef.snap"


# ----------------------------------------------------------------------
# Periodic auto-snapshot
# ----------------------------------------------------------------------
class TestAutoSnapshotter:
    def test_event_trigger_writes_periodically(self, tmp_path):
        baseline = fingerprint(build(jobs=40).run())
        manager = build(jobs=40)
        path = tmp_path / "auto.snap"
        snapper = AutoSnapshotter(
            manager, path, spec_hash="x", every_events=50
        )
        # Snapshotting must not perturb the run, and the last periodic
        # snapshot must finish with the same accounting.
        assert fingerprint(manager.run(snapshotter=snapper)) == baseline
        assert snapper.written >= 2
        assert snapper.write_failures == 0
        restored = read_snapshot(path, expect_spec_hash="x")
        assert isinstance(restored, WorkloadManager)
        assert restored.sim.heap, "the last periodic snapshot is mid-run"
        assert fingerprint(restored.run()) == baseline

    def test_wall_clock_trigger(self, tmp_path):
        manager = build(jobs=20)
        ticks = iter(range(0, 100000, 100))  # every call is 100s later
        snapper = AutoSnapshotter(
            manager, tmp_path / "w.snap",
            every_wall_s=50.0, clock=lambda: float(next(ticks)),
        )
        manager.run(snapshotter=snapper)
        assert snapper.written >= 1

    def test_write_failures_are_swallowed(self, tmp_path, monkeypatch):
        manager = build(jobs=20)
        snapper = AutoSnapshotter(
            manager, tmp_path / "f.snap", every_events=10
        )
        import repro.snapshot.state as state_mod

        def broken_write(*args, **kwargs):
            raise OSError("disk full")

        # fire() imports write_snapshot from state at call time.
        monkeypatch.setattr(state_mod, "write_snapshot", broken_write)
        manager.run(snapshotter=snapper)
        assert snapper.write_failures >= 1
        assert snapper.written == 0

    def test_requires_a_trigger(self, tmp_path):
        with pytest.raises(ConfigError):
            AutoSnapshotter(build(jobs=5), tmp_path / "n.snap")

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("5000e", (5000, None)),
            ("30", (None, 30.0)),
            ("2.5s", (None, 2.5)),
            ("", (None, None)),
            ("0", (None, None)),
            (None, (None, None)),
        ],
    )
    def test_parse_snapshot_every(self, text, expected):
        assert parse_snapshot_every(text) == expected

    @pytest.mark.parametrize("text", ["abc", "-5", "0e", "-3e", "1.5e"])
    def test_parse_snapshot_every_rejects_garbage(self, text):
        with pytest.raises(ConfigError):
            parse_snapshot_every(text)


# ----------------------------------------------------------------------
# Suspension flag and signals
# ----------------------------------------------------------------------
class TestSuspendFlag:
    def test_flag_set_and_reset(self):
        assert not suspend.suspend_requested()
        suspend.request_suspend()
        assert suspend.suspend_requested()
        suspend.reset()
        assert not suspend.suspend_requested()

    def test_third_request_escalates(self):
        suspend.request_suspend()
        suspend.request_suspend()
        with pytest.raises(KeyboardInterrupt):
            suspend.request_suspend()

    def test_install_and_restore_handlers(self):
        previous = suspend.install_signal_handlers()
        assert previous is not None
        assert signal.getsignal(signal.SIGTERM) is suspend.request_suspend
        assert signal.getsignal(signal.SIGINT) is suspend.request_suspend
        suspend.restore_signal_handlers(previous)
        assert signal.getsignal(signal.SIGTERM) is previous[signal.SIGTERM]


# ----------------------------------------------------------------------
# Entry-level suspend/resume (the worker code path)
# ----------------------------------------------------------------------
class TestEntryResume:
    def _params(self):
        from repro.campaign.spec import simulate_params, trinity_workload

        return simulate_params(
            "shared_backfill", trinity_workload(40, 16, seed=1), 16
        )

    def test_suspended_entry_resumes_byte_identical(self, tmp_path):
        from repro.campaign.spec import run_id_of
        from repro.slurm.entry import execute_run

        params = self._params()
        baseline = execute_run(params)

        suspend.request_suspend()  # suspend at the first event boundary
        with pytest.raises(SuspendRequested) as excinfo:
            execute_run(params, snapshot_dir=str(tmp_path))
        snap = snapshot_path_for(tmp_path, run_id_of(params))
        assert excinfo.value.snapshot_path == str(snap)
        assert snap.is_file()
        assert not suspend.suspend_requested(), "worker resets after parking"

        resumed = execute_run(params, snapshot_dir=str(tmp_path))
        assert resumed == baseline
        assert not snap.exists(), "completed runs drop their snapshot"

    @pytest.mark.parametrize("snapshots", [False, True],
                             ids=["plain", "autosnapshot"])
    def test_finished_run_is_freed_without_the_cyclic_collector(
        self, tmp_path, monkeypatch, snapshots
    ):
        # The manager holds its simulator, and the handlers, suspend
        # poll and autosnapshotter of its run hold the manager; the
        # simulator keeps none of them, so once the payload is built
        # nothing keeps the manager alive.
        import gc
        import weakref

        from repro.slurm import manager as manager_module
        from repro.slurm.entry import execute_run

        built = []
        build = manager_module.build_manager

        def recording_build(*args, **kwargs):
            manager = build(*args, **kwargs)
            built.append(weakref.ref(manager))
            return manager

        monkeypatch.setattr(manager_module, "build_manager", recording_build)
        kwargs = (
            {"snapshot_dir": str(tmp_path), "snapshot_every": "50e"}
            if snapshots else {}
        )
        enabled = gc.isenabled()
        gc.disable()
        try:
            payload = execute_run(self._params(), **kwargs)
            assert payload["completed"] == 40
            assert len(built) == 1
            assert built[0]() is None
        finally:
            if enabled:
                gc.enable()

    def test_stale_snapshot_falls_back_to_fresh_run(self, tmp_path):
        from repro.campaign.spec import run_id_of
        from repro.slurm.entry import execute_run

        params = self._params()
        baseline = execute_run(params)
        snap = snapshot_path_for(tmp_path, run_id_of(params))
        snap.write_bytes(b'{"format": "garbage"}\nnope')
        assert execute_run(params, snapshot_dir=str(tmp_path)) == baseline


# ----------------------------------------------------------------------
# Resource guards
# ----------------------------------------------------------------------
class TestResourceGuards:
    def test_disarmed_guards_are_inert(self):
        guards = ResourceGuards()
        assert not guards.armed
        assert guards.check([123]) == []

    def test_rss_trip(self):
        guards = ResourceGuards(
            rss_budget_mb=100.0,
            poll_interval_s=0.0,
            rss_probe=lambda pid: 250.0 if pid == 11 else 50.0,
        )
        trips = guards.check([10, 11, 12])
        assert [t.pid for t in trips] == [11]
        assert trips[0].kind == "rss"
        assert trips[0].value_mb == 250.0
        assert guards.trips_seen == 1

    def test_unknowable_rss_never_trips(self):
        guards = ResourceGuards(
            rss_budget_mb=1.0, poll_interval_s=0.0, rss_probe=lambda pid: None
        )
        assert guards.check([1, 2, 3]) == []

    def test_disk_trip_and_recovery(self, tmp_path):
        frees = iter([10.0, 10.0, 900.0])
        guards = ResourceGuards(
            disk_min_free_mb=100.0,
            watch_path=tmp_path,
            poll_interval_s=0.0,
            disk_probe=lambda path: next(frees),
        )
        first = guards.check()
        assert len(first) == 1 and first[0].kind == "disk"
        assert guards.check()[0].kind == "disk"
        assert guards.check() == []

    def test_rate_limiting_returns_none(self):
        ticks = iter([0.0, 1.0, 3.0])
        guards = ResourceGuards(
            rss_budget_mb=100.0,
            poll_interval_s=2.0,
            clock=lambda: next(ticks),
            rss_probe=lambda pid: 50.0,
        )
        assert guards.check([1]) == []      # t=0: polls
        assert guards.check([1]) is None    # t=1: rate-limited
        assert guards.check([1]) == []      # t=3: polls again

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            ResourceGuards(rss_budget_mb=0)
        with pytest.raises(ConfigError):
            ResourceGuards(disk_min_free_mb=10.0)  # needs watch_path
        with pytest.raises(ConfigError):
            ResourceGuards(rss_budget_mb=10.0, poll_interval_s=-1)

    def test_guard_trip_is_frozen(self):
        trip = GuardTrip(kind="rss", message="m", value_mb=1.0, limit_mb=2.0)
        with pytest.raises(Exception):
            trip.kind = "disk"  # type: ignore[misc]

    def test_real_probes_on_this_host(self, tmp_path):
        import os

        from repro.snapshot.guards import disk_free_mb, rss_mb_of

        assert disk_free_mb(tmp_path) > 0
        rss = rss_mb_of(os.getpid())
        if rss is not None:  # /proc exists on Linux CI
            assert rss > 1.0
        assert rss_mb_of(99999999) is None
