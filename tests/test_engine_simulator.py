"""Unit tests for the simulation loop."""

import weakref

import pytest

from repro.engine.events import EventKind
from repro.engine.simulator import Simulator
from repro.errors import SimulationError


class TestScheduling:
    def test_schedule_and_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, EventKind.CHECKPOINT)
        sim.schedule(2.0, EventKind.CHECKPOINT)
        end = sim.run({EventKind.CHECKPOINT: lambda s, e: seen.append(s.now)})
        assert seen == [2.0, 5.0]
        assert end == 5.0

    def test_schedule_in_is_relative(self):
        sim = Simulator()
        times = []

        def checkpoint(s, e):
            times.append(s.now)
            s.schedule_in(2.0, EventKind.SIM_END)

        sim.schedule(3.0, EventKind.CHECKPOINT)
        sim.run({
            EventKind.CHECKPOINT: checkpoint,
            EventKind.SIM_END: lambda s, e: times.append(s.now),
        })
        assert times == [3.0, 5.0]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, EventKind.CHECKPOINT)
        sim.run({})
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.schedule(5.0, EventKind.CHECKPOINT)

    def test_cancelled_event_not_dispatched(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.cancel(event)
        sim.run({EventKind.CHECKPOINT: lambda s, e: fired.append(e)})
        assert fired == []


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        sim.schedule(10.0, EventKind.CHECKPOINT)
        end = sim.run({}, until=4.0)
        assert end == 4.0
        assert len(sim.heap) == 1  # event still queued

    def test_run_until_past_last_event(self):
        sim = Simulator()
        sim.schedule(1.0, EventKind.CHECKPOINT)
        end = sim.run({}, until=100.0)
        assert end == 100.0

    def test_stop_requested_by_handler(self):
        sim = Simulator()
        sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.schedule(2.0, EventKind.CHECKPOINT)
        end = sim.run({EventKind.CHECKPOINT: lambda s, e: s.stop()})
        assert end == 1.0
        assert len(sim.heap) == 1

    def test_run_not_reentrant(self):
        sim = Simulator()

        def reenter(s, e):
            with pytest.raises(SimulationError, match="not reentrant"):
                s.run({})

        sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.run({EventKind.CHECKPOINT: reenter})

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)
        sim.schedule(0.0, EventKind.CHECKPOINT)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run({
                EventKind.CHECKPOINT:
                    lambda s, e: s.schedule_in(1.0, EventKind.CHECKPOINT),
            })

    def test_event_counter(self):
        sim = Simulator()
        sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.schedule(2.0, EventKind.CHECKPOINT)
        sim.run({})
        assert sim.events_dispatched == 2


class TestHandlers:
    def test_step_dispatches_to_the_table_it_is_given(self):
        sim = Simulator()
        calls = []
        sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.schedule(2.0, EventKind.CHECKPOINT)
        sim.step({EventKind.CHECKPOINT: lambda s, e: calls.append("first")})
        sim.step({EventKind.CHECKPOINT: lambda s, e: calls.append("second")})
        assert calls == ["first", "second"]

    def test_simulator_keeps_nothing_of_a_run(self):
        # The table, the suspend poll and the snapshotter are locals of
        # one run() call: the simulator holds none of them afterwards.
        class Hook:
            def handle(self, s, e):
                pass

            def poll(self):
                return False

            def maybe_fire(self, s):
                pass

        hook = Hook()
        held = weakref.ref(hook)
        sim = Simulator()
        sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.run(
            {EventKind.CHECKPOINT: hook.handle},
            suspend_poll=hook.poll, snapshotter=hook,
        )
        assert sim.events_dispatched == 1
        del hook
        assert held() is None

    def test_unhandled_kinds_are_silent(self):
        sim = Simulator()
        sim.schedule(1.0, EventKind.SIM_END)
        assert sim.run({}) == 1.0

    def test_trace_records_dispatches(self):
        sim = Simulator(ring_size=256)
        sim.schedule(1.0, EventKind.CHECKPOINT)
        sim.schedule(2.0, EventKind.SIM_END)
        sim.run({})
        assert len(sim.flight_ring) == 2
        assert sim.flight_ring[0].kind is EventKind.CHECKPOINT
