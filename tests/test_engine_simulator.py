"""Unit tests for the simulation loop."""

import pytest

from repro.engine.events import EventKind
from repro.engine.simulator import Simulator
from repro.errors import SimulationError


class TestScheduling:
    def test_schedule_and_run(self):
        sim = Simulator()
        seen = []
        sim.on(EventKind.CHECKPOINT, lambda s, e: seen.append(s.now))
        sim.schedule(5.0, EventKind.CHECKPOINT)
        sim.schedule(2.0, EventKind.CHECKPOINT)
        end = sim.run()
        assert seen == [2.0, 5.0]
        assert end == 5.0

    def test_schedule_in_is_relative(self):
        sim = Simulator()
        times = []
        sim.on(EventKind.CHECKPOINT, lambda s, e: times.append(s.now))
        sim.schedule(3.0, EventKind.CHECKPOINT)
        sim.on(
            EventKind.CHECKPOINT,
            lambda s, e: s.schedule_in(2.0, EventKind.SIM_END) if s.now == 3.0 else None,
        )
        sim.on(EventKind.SIM_END, lambda s, e: times.append(s.now))
        sim.run()
        assert times == [3.0, 5.0]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, EventKind.CHECKPOINT)
        sim.run()
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.schedule(5.0, EventKind.CHECKPOINT)

    def test_cancelled_event_not_dispatched(self):
        sim = Simulator()
        fired = []
        sim.on(EventKind.CHECKPOINT, lambda s, e: fired.append(e))
        event = sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.cancel(event)
        sim.run()
        assert fired == []


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        sim.schedule(10.0, EventKind.CHECKPOINT)
        end = sim.run(until=4.0)
        assert end == 4.0
        assert len(sim.heap) == 1  # event still queued

    def test_run_until_past_last_event(self):
        sim = Simulator()
        sim.schedule(1.0, EventKind.CHECKPOINT)
        end = sim.run(until=100.0)
        assert end == 100.0

    def test_stop_requested_by_handler(self):
        sim = Simulator()
        sim.on(EventKind.CHECKPOINT, lambda s, e: s.stop())
        sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.schedule(2.0, EventKind.CHECKPOINT)
        end = sim.run()
        assert end == 1.0
        assert len(sim.heap) == 1

    def test_run_not_reentrant(self):
        sim = Simulator()

        def reenter(s, e):
            with pytest.raises(SimulationError, match="not reentrant"):
                s.run()

        sim.on(EventKind.CHECKPOINT, reenter)
        sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.run()

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)
        sim.on(
            EventKind.CHECKPOINT,
            lambda s, e: s.schedule_in(1.0, EventKind.CHECKPOINT),
        )
        sim.schedule(0.0, EventKind.CHECKPOINT)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()

    def test_event_counter(self):
        sim = Simulator()
        sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.schedule(2.0, EventKind.CHECKPOINT)
        sim.run()
        assert sim.events_dispatched == 2


class TestHandlers:
    def test_multiple_handlers_in_registration_order(self):
        sim = Simulator()
        calls = []
        sim.on(EventKind.CHECKPOINT, lambda s, e: calls.append("first"))
        sim.on(EventKind.CHECKPOINT, lambda s, e: calls.append("second"))
        sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.run()
        assert calls == ["first", "second"]

    def test_unhandled_kinds_are_silent(self):
        sim = Simulator()
        sim.schedule(1.0, EventKind.SIM_END)
        assert sim.run() == 1.0

    def test_trace_records_dispatches(self):
        sim = Simulator(ring_size=256)
        sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.schedule(2.0, EventKind.SIM_END)
        sim.run()
        assert len(sim.flight_ring) == 2
        assert sim.flight_ring[0].kind is EventKind.CHECKPOINT
