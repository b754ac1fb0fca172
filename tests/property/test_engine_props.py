"""Property-based tests for the event engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

delays = st.lists(
    st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False),
    min_size=1, max_size=60,
)


class TestEventOrdering:
    @given(delays=delays)
    @settings(max_examples=60, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.after(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(delays=delays)
    @settings(max_examples=60, deadline=None)
    def test_final_time_is_max_delay(self, delays):
        sim = Simulator()
        for delay in delays:
            sim.after(delay, lambda: None)
        assert sim.run() == max(delays)

    @given(delays=delays, boundary=st.floats(min_value=0.0, max_value=1_000.0))
    @settings(max_examples=60, deadline=None)
    def test_run_until_splits_cleanly(self, delays, boundary):
        """Running to a boundary then to completion fires everything
        exactly once, in the same order as a single run."""
        single = Simulator()
        single_log = []
        for index, delay in enumerate(delays):
            single.after(delay, single_log.append, index)
        single.run()

        split = Simulator()
        split_log = []
        for index, delay in enumerate(delays):
            split.after(delay, split_log.append, index)
        split.run(until=boundary)
        split.run()
        assert split_log == single_log

    @given(
        delays=delays,
        cancel_mask=st.lists(st.booleans(), min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_cancelled_subset_never_fires(self, delays, cancel_mask):
        sim = Simulator()
        fired = []
        events = [
            sim.after(delay, fired.append, index)
            for index, delay in enumerate(delays)
        ]
        cancelled = set()
        for index, (event, flag) in enumerate(zip(events, cancel_mask)):
            if flag:
                event.cancel()
                cancelled.add(index)
        sim.run()
        assert set(fired).isdisjoint(cancelled)
        assert set(fired) | cancelled >= set(range(min(len(delays), len(cancel_mask))))
