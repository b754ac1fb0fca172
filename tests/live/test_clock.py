"""Tests for the live (wall-clock) runtime clock."""

from __future__ import annotations

import asyncio

import pytest

from repro.live.clock import LiveClock
from repro.live.runtime import Clock, Handle
from repro.sim import Simulator
from repro.sim.timers import Timer


def run(coro):
    return asyncio.run(coro)


class TestClockSurface:
    def test_satisfies_the_runtime_protocol(self):
        # isinstance on a runtime_checkable Protocol probes the `now`
        # property, which needs a running loop on the live clock.
        async def main():
            assert isinstance(LiveClock(), Clock)
            assert isinstance(Simulator(), Clock)

        run(main())

    def test_handle_satisfies_the_runtime_protocol(self):
        async def main():
            clock = LiveClock()
            handle = clock.after(1000.0, lambda: None)
            assert isinstance(handle, Handle)
            handle.cancel()

        run(main())

    def test_rejects_nonpositive_speedup(self):
        with pytest.raises(ValueError):
            LiveClock(speedup=0)
        with pytest.raises(ValueError):
            LiveClock(speedup=-2.0)

    @pytest.mark.parametrize("speedup", [float("nan"), float("inf")])
    def test_rejects_nonfinite_speedup(self, speedup):
        """nan passes ``<= 0`` and then no timer ever comes due; inf
        makes every virtual reading inf."""
        with pytest.raises(ValueError, match="finite"):
            LiveClock(speedup=speedup)

    def test_rejects_negative_delay(self):
        async def main():
            clock = LiveClock()
            with pytest.raises(ValueError):
                clock.after(-1.0, lambda: None)

        run(main())


class TestScheduling:
    def test_callbacks_fire_in_order_with_args(self):
        async def main():
            clock = LiveClock(speedup=100.0)
            fired = []
            clock.after(20.0, fired.append, "second")
            clock.after(10.0, fired.append, "first")
            await clock.sleep(60.0)
            assert fired == ["first", "second"]
            assert clock.events_fired == 2
            assert clock.pending_events == 0

        run(main())

    def test_cancel_prevents_firing(self):
        async def main():
            clock = LiveClock(speedup=100.0)
            fired = []
            handle = clock.after(10.0, fired.append, "x")
            assert handle.pending
            handle.cancel()
            assert not handle.pending
            assert handle.cancelled
            await clock.sleep(40.0)
            assert fired == []
            assert clock.pending_events == 0

        run(main())

    def test_past_deadline_clamps_instead_of_raising(self):
        """The one deliberate divergence from the simulator (which
        raises): real time moves between computing a deadline and
        scheduling it, so the live clock fires past times at once."""
        async def main():
            clock = LiveClock(speedup=100.0)
            await clock.sleep(20.0)
            fired = []
            clock.at(1.0, fired.append, "late")
            await clock.sleep(20.0)
            assert fired == ["late"]

        run(main())

    def test_virtual_time_scales_with_speedup(self):
        async def main():
            clock = LiveClock(speedup=1000.0)
            start = clock.now
            await asyncio.sleep(0.01)  # 10 real ms = 10_000 virtual ms
            elapsed = clock.now - start
            assert elapsed >= 5_000.0

        run(main())

    def test_cancel_all(self):
        async def main():
            clock = LiveClock(speedup=100.0)
            for _ in range(5):
                clock.after(1000.0, lambda: None)
            assert clock.pending_events == 5
            assert clock.cancel_all() == 5
            assert clock.pending_events == 0

        run(main())

    def test_sim_timer_rearms_on_live_clock(self):
        """The protocol's Timer (in-place re-arm via reserved seqs)
        must work unchanged against the live clock."""
        async def main():
            clock = LiveClock(speedup=10.0)
            fired = []
            timer = Timer(clock, lambda: fired.append(clock.now))
            timer.start(10.0)
            timer.start(50.0)      # push-back: in-place re-arm
            await clock.sleep(30.0)
            assert fired == []     # stale event fired, deadline held
            await clock.sleep(60.0)
            assert len(fired) == 1
            assert fired[0] >= 50.0
            timer.start(5.0)       # reusable after firing
            await clock.sleep(40.0)
            assert len(fired) == 2

        run(main())


class TestHoldRelease:
    def test_time_is_frozen_while_held(self):
        async def main():
            clock = LiveClock(speedup=100.0, held=True)
            assert clock.held
            assert clock.now == 0.0
            await asyncio.sleep(0.01)
            assert clock.now == 0.0

        run(main())

    def test_deferred_work_fires_after_release(self):
        async def main():
            clock = LiveClock(speedup=100.0, held=True)
            fired = []
            clock.after(10.0, fired.append, "deferred")
            await asyncio.sleep(0.005)  # held: nothing moves
            assert fired == []
            assert clock.pending_events == 1
            clock.release()
            assert not clock.held
            await clock.sleep(40.0)
            assert fired == ["deferred"]

        run(main())

    def test_delays_measure_from_release_not_construction(self):
        """Setup time must not eat into protocol timers: a 40 ms timer
        armed while held still gets its full 40 ms after release."""
        async def main():
            clock = LiveClock(speedup=10.0, held=True)
            fired = []
            clock.after(100.0, lambda: fired.append(clock.now))
            await asyncio.sleep(0.02)  # 200 virtual ms of setup, frozen
            clock.release()
            await clock.sleep(30.0)
            assert fired == []         # under a third of the delay passed
            await clock.sleep(120.0)
            assert len(fired) == 1
            assert fired[0] >= 100.0

        run(main())

    def test_cancelled_while_held_never_fires(self):
        async def main():
            clock = LiveClock(speedup=100.0, held=True)
            fired = []
            handle = clock.after(5.0, fired.append, "x")
            handle.cancel()
            clock.release()
            await clock.sleep(30.0)
            assert fired == []

        run(main())

    def test_release_is_idempotent(self):
        async def main():
            clock = LiveClock(speedup=100.0, held=True)
            clock.release()
            epoch_now = clock.now
            clock.release()  # no-op
            assert clock.now >= epoch_now

        run(main())
