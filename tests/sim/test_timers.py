"""Unit tests for Timer and PeriodicTask."""

import pytest

from repro.sim import PeriodicTask, Timer


class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(10.0)
        sim.run()
        assert fired == [pytest.approx(10.0)]

    def test_restart_pushes_deadline_back(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(10.0)
        sim.after(5.0, timer.start, 10.0)  # restart at t=5 -> fires at 15
        sim.run()
        assert fired == [pytest.approx(15.0)]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(10.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        timer = Timer(sim, lambda: None)
        timer.cancel()
        timer.cancel()
        assert not timer.armed

    def test_armed_and_deadline(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        assert timer.deadline is None
        timer.start(4.0)
        assert timer.armed
        assert timer.deadline == pytest.approx(4.0)
        sim.run()
        assert not timer.armed

    def test_timer_can_be_restarted_after_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        timer.start(1.0)
        sim.run()
        assert fired == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_idle_threshold_semantics(self, sim):
        """Repeated refreshes model the paper's idle-timer behaviour."""
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(40.0)
        for t in (10.0, 20.0, 30.0, 55.0):
            sim.at(t, timer.start, 40.0)
        sim.run()
        # Last refresh at t=55 -> idle at 95.
        assert fired == [pytest.approx(95.0)]


class TestPeriodicTask:
    def test_ticks_at_interval(self, sim):
        ticks = []
        task = PeriodicTask(sim, 10.0, lambda: ticks.append(sim.now))
        task.start()
        sim.run(until=35.0)
        assert ticks == [pytest.approx(10.0), pytest.approx(20.0), pytest.approx(30.0)]

    def test_phase_controls_first_tick(self, sim):
        ticks = []
        task = PeriodicTask(sim, 10.0, lambda: ticks.append(sim.now))
        task.start(phase=3.0)
        sim.run(until=25.0)
        assert ticks == [pytest.approx(3.0), pytest.approx(13.0), pytest.approx(23.0)]

    def test_stop_halts_ticking(self, sim):
        ticks = []
        task = PeriodicTask(sim, 10.0, lambda: ticks.append(sim.now))
        task.start()
        sim.at(25.0, task.stop)
        sim.run(until=100.0)
        assert len(ticks) == 2

    def test_callback_may_stop_the_task(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.stop()

        task = PeriodicTask(sim, 5.0, tick)
        task.start()
        sim.run(until=100.0)
        assert len(ticks) == 2

    def test_invalid_interval_raises(self, sim):
        with pytest.raises(ValueError):
            PeriodicTask(sim, 0.0, lambda: None)

    def test_running_property(self, sim):
        task = PeriodicTask(sim, 5.0, lambda: None)
        assert not task.running
        task.start()
        assert task.running
        task.stop()
        assert not task.running


class TestTimerInPlaceRearm:
    """The push-back optimization: later deadlines re-arm in place."""

    def test_later_rearm_keeps_underlying_event(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(10.0)
        original = timer._event
        sim.after(3.0, timer.start, 10.0)  # deadline 13 > 10: in place
        sim.run(until=5.0)
        assert timer._event is original
        assert timer.armed
        assert timer.deadline == pytest.approx(13.0)

    def test_stale_event_triggers_single_catchup_fire(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(10.0)
        sim.after(3.0, timer.start, 10.0)
        sim.run()
        assert fired == [pytest.approx(13.0)]

    def test_many_pushbacks_one_callback(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(10.0)
        for t in range(1, 50):
            sim.at(float(t), timer.start, 10.0)
        sim.run()
        assert fired == [pytest.approx(59.0)]

    def test_earlier_rearm_falls_back_to_reschedule(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(10.0)
        original = timer._event
        timer.start(3.0)  # earlier: must cancel + reschedule
        assert timer._event is not original
        assert original.cancelled
        sim.run()
        assert fired == [pytest.approx(3.0)]

    def test_equal_deadline_rearm_reschedules(self, sim):
        # An equal deadline must not keep the old event: the replacement
        # event's (later) seq decides same-time ordering.
        timer = Timer(sim, lambda: None)
        timer.start(10.0)
        original = timer._event
        timer.start(10.0)
        assert timer._event is not original

    def test_pushback_preserves_same_time_ordering(self, sim):
        # The catch-up event must fire in the order a cancel+reschedule
        # at refresh time would have produced.  The timer is refreshed
        # at t=3 (deadline 11); a plain event lands at t=11 but is only
        # scheduled at t=5.  Refresh-time seq < plain seq, so the timer
        # fires first — even though its catch-up is physically scheduled
        # at t=10 when the stale event fires.
        order = []
        timer = Timer(sim, lambda: order.append("timer"))
        timer.start(10.0)
        sim.at(3.0, timer.start, 8.0)   # push back to 11, in place
        sim.at(5.0, lambda: sim.at(11.0, order.append, "plain"))
        sim.run()
        assert order == ["timer", "plain"]

    def test_cancel_after_pushback(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(10.0)
        sim.at(3.0, timer.start, 10.0)
        sim.at(5.0, timer.cancel)
        sim.run()
        assert fired == []
        assert not timer.armed
