"""Unit tests for the discrete-event engine."""

from unittest import mock

import pytest

from repro.sim import SimulationError, Simulator, events


class TestScheduling:
    def test_after_fires_at_correct_time(self, sim):
        times = []
        sim.after(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(5.0)]

    def test_at_fires_at_absolute_time(self, sim):
        times = []
        sim.at(7.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(7.5)]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.after(3.0, order.append, "c")
        sim.after(1.0, order.append, "a")
        sim.after(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self, sim):
        order = []
        sim.after(1.0, order.append, "first")
        sim.after(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second"]

    def test_scheduling_in_past_raises(self, sim):
        sim.after(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(0.5, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_scheduling_at_now_is_allowed(self, sim):
        fired = []
        sim.at(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_callbacks_can_schedule_more_events(self, sim):
        order = []

        def chain(n):
            order.append(n)
            if n < 3:
                sim.after(1.0, chain, n + 1)

        sim.after(1.0, chain, 0)
        sim.run()
        assert order == [0, 1, 2, 3]
        assert sim.now == pytest.approx(4.0)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.after(1.0, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_from_another_callback(self, sim):
        fired = []
        victim = sim.after(2.0, fired.append, "victim")
        sim.after(1.0, victim.cancel)
        sim.run()
        assert fired == []


class TestCompactionFromAt:
    def test_at_into_an_open_instant_compacts_when_due(self, sim):
        """``at`` appends to an instant's bucket directly, but reads the
        compaction threshold at call time and still compacts."""
        doomed = [sim.at(1.0, lambda: None) for _ in range(6)]
        for event in doomed[:4]:
            event.cancel()
        queue = sim._queue
        sim.at(1.0, lambda: None)
        assert queue.dead_count == 4  # below COMPACT_MIN_DEAD
        with mock.patch.object(events, "COMPACT_MIN_DEAD", 2):
            sim.at(1.0, lambda: None)
        assert queue.dead_count == 0
        assert len(queue) == sim.pending_events == 4


class TestRun:
    def test_run_until_stops_at_boundary(self, sim):
        fired = []
        sim.after(1.0, fired.append, 1)
        sim.after(10.0, fired.append, 2)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == pytest.approx(5.0)

    def test_run_until_advances_clock_even_when_idle(self, sim):
        sim.run(until=100.0)
        assert sim.now == pytest.approx(100.0)

    def test_event_after_until_still_pending(self, sim):
        fired = []
        sim.after(10.0, fired.append, 1)
        sim.run(until=5.0)
        sim.run()
        assert fired == [1]

    def test_run_for_is_relative(self, sim):
        sim.run(until=10.0)
        sim.run_for(5.0)
        assert sim.now == pytest.approx(15.0)

    def test_run_returns_final_time(self, sim):
        sim.after(3.0, lambda: None)
        assert sim.run() == pytest.approx(3.0)

    def test_max_events_bounds_execution(self, sim):
        count = [0]

        def loop():
            count[0] += 1
            sim.after(1.0, loop)

        sim.after(1.0, loop)
        sim.run(max_events=10)
        assert count[0] == 10

    def test_run_is_not_reentrant(self, sim):
        error = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                error.append(exc)

        sim.after(1.0, reenter)
        sim.run()
        assert len(error) == 1

    def test_drain_raises_on_runaway(self, sim):
        def loop():
            sim.after(1.0, loop)

        sim.after(1.0, loop)
        with pytest.raises(SimulationError):
            sim.drain(max_events=50)

    def test_drain_error_reports_live_events_and_next_deadline(self, sim):
        def loop():
            sim.after(1.0, loop)

        sim.after(1.0, loop)
        with pytest.raises(SimulationError) as excinfo:
            sim.drain(max_events=50)
        message = str(excinfo.value)
        # One self-rescheduling event remains, due at t=51.
        assert "max_events=50" in message
        assert "1 live events still queued" in message
        assert "next pending at t=51.000000" in message

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_counters(self, sim):
        sim.after(1.0, lambda: None)
        sim.after(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.events_fired == 2
        assert sim.pending_events == 0


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            simulator = Simulator()
            log = []
            for i in range(20):
                simulator.after((i * 7) % 5 + 0.5, log.append, i)
            simulator.run()
            return log

        assert build_and_run() == build_and_run()
