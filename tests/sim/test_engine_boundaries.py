"""Boundary semantics of Simulator.run(max_events=...), queue
cancellation and non-finite firing times, including under the
process-pool backend (engine state must never leak across trials that
share a worker process)."""

import pytest

from repro.runner.backends import ProcessPoolBackend, SerialBackend
from repro.runner.spec import SweepSpec
from repro.runner._testing import trial_engine_exercise
from repro.sim.engine import SimulationError, Simulator, total_events_fired


class TestMaxEventsBoundaries:
    def test_zero_fires_nothing(self):
        sim = Simulator()
        fired = []
        sim.after(1.0, fired.append, "a")
        end = sim.run(max_events=0)
        assert fired == []
        assert end == 0.0
        assert sim.pending_events == 1

    def test_exact_queue_size_drains(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.after(float(i + 1), fired.append, i)
        sim.run(max_events=5)
        assert fired == [0, 1, 2, 3, 4]
        assert sim.pending_events == 0

    def test_stops_one_short_and_resumes(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.after(float(i + 1), fired.append, i)
        end = sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]
        assert end == 4.0  # clock stops at the last fired event
        sim.run(max_events=1)
        assert fired == [0, 1, 2, 3, 4]

    def test_cancelled_events_do_not_count_against_budget(self):
        sim = Simulator()
        fired = []
        keep = [sim.after(float(i + 10), fired.append, i) for i in range(3)]
        doomed = [sim.after(float(i + 1), fired.append, 100 + i) for i in range(3)]
        for event in doomed:
            event.cancel()
        sim.run(max_events=3)
        assert fired == [0, 1, 2]
        assert all(not event.pending for event in keep)

    def test_max_events_combines_with_until(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.after(float(i + 1), fired.append, i)
        # until would allow 5 events, max_events only 3: max_events wins.
        sim.run(until=5.0, max_events=3)
        assert fired == [0, 1, 2]
        # max_events would allow 5 more, until stops after 2: until wins,
        # and the clock advances exactly to the boundary.
        end = sim.run(until=5.0, max_events=5)
        assert fired == [0, 1, 2, 3, 4]
        assert end == 5.0

    def test_rescheduling_callback_obeys_budget(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            sim.after(1.0, tick)

        sim.after(1.0, tick)
        sim.run(max_events=7)
        assert count[0] == 7
        assert sim.pending_events == 1  # the next tick remains queued


class TestNonFiniteTimes:
    """A NaN time used to fire before t=1 and poison ``now`` (no
    past-time check can fail against NaN); an infinite one ended the
    run at ``now == inf``.  Both are refused, and nothing changes."""

    BAD = [float("nan"), float("inf"), float("-inf")]

    def refused(self, sim, schedule):
        sim.after(1.0, lambda: None)
        sim.run(until=0.5)
        with pytest.raises(SimulationError):
            schedule()
        assert sim.now == 0.5
        assert sim.pending_events == 1
        assert sim.run() == 1.0

    @pytest.mark.parametrize("time", BAD)
    def test_at(self, time):
        sim = Simulator()
        self.refused(sim, lambda: sim.at(time, lambda: None))

    @pytest.mark.parametrize("delay", BAD)
    def test_after(self, delay):
        sim = Simulator()
        self.refused(sim, lambda: sim.after(delay, lambda: None))

    @pytest.mark.parametrize("time", BAD)
    def test_at_reserved(self, time):
        sim = Simulator()
        self.refused(sim, lambda: sim.at_reserved(time, sim.reserve_seq(), lambda: None))


class TestQueueCancellation:
    def test_step_skips_cancelled_runs(self):
        sim = Simulator()
        events = [sim.at(float(i), lambda: None) for i in range(6)]
        for event in events[:3]:
            event.cancel()
        assert sim.step() and sim.now == events[3].time
        assert not events[3].pending
        assert sim.pending_events == 2

    def test_next_time_prunes_dead_prefix(self):
        sim = Simulator()
        early = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        early.cancel()
        assert sim._head() is not None and sim._times[0] == 2.0
        assert sim._size == 1  # the dead entry was dropped on the way

    def test_cancel_all_empties(self):
        sim = Simulator()
        events = [sim.at(float(i), lambda: None) for i in range(4)]
        for event in events:
            event.cancel()
        assert sim.step() is False
        assert sim._head() is None and sim.now == 0.0


def _engine_sweep(seeds):
    # max_events stops each trial mid-queue, so every trial *leaves*
    # pending events behind — exactly the state that must not leak into
    # the next trial sharing the worker process.
    return SweepSpec(
        "engine-isolation", trial_engine_exercise,
        [{"events": 40, "cancel_stride": 4, "max_events": 20}],
        list(seeds),
    )


class TestEngineUnderProcessPool:
    def test_trials_see_fresh_engine_state(self):
        outcomes = ProcessPoolBackend(2).run(_engine_sweep(range(8)).trials())
        for outcome in outcomes:
            run = outcome.value
            assert run["clean_clock"] is True
            assert run["live_before"] == 30  # 40 scheduled - 10 cancelled
            assert run["fired"] == 20
            assert run["instance_events"] == 20
            # The process-wide counter delta matches this trial alone:
            # no other trial's events are attributed to it.
            assert run["global_delta"] == 20
            assert run["pending_after"] == 10
            assert outcome.events_fired == 20

    def test_pool_results_identical_to_serial(self):
        serial = [o.value for o in SerialBackend().run(_engine_sweep(range(6)).trials())]
        pooled = [o.value for o in ProcessPoolBackend(3).run(_engine_sweep(range(6)).trials())]
        assert pooled == serial

    def test_parent_engine_counter_untouched_by_workers(self):
        before = total_events_fired()
        ProcessPoolBackend(2).run(_engine_sweep(range(4)).trials())
        assert total_events_fired() == before
