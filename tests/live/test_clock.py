"""Tests for the live (wall-clock) runtime clock."""

from __future__ import annotations

import asyncio

import pytest

from repro.live.clock import LiveClock
from repro.live.runtime import Clock, Handle
from repro.sim.engine import Simulator
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
            await clock.sleep(40.0)
            assert fired == []
            assert not handle.pending
            assert clock.pending_events == 0

        run(main())

    @pytest.mark.parametrize("on", ["sim", "live"])
    def test_fired_and_cancelled_handles_both_stop_pending(self, on):
        """On either clock a fired and a cancelled handle both read
        ``pending`` False, only the fired one ran, and neither offers a
        ``cancelled`` reading to tell them apart."""
        log = []

        def schedule(clock):
            fired = clock.after(1.0, log.append, "fired")
            cancelled = clock.after(1.0, log.append, "cancelled")
            assert fired.pending and cancelled.pending
            cancelled.cancel()
            return fired, cancelled

        if on == "sim":
            sim = Simulator()
            handles = schedule(sim)
            sim.run()
        else:
            async def main():
                clock = LiveClock(speedup=100.0)
                scheduled = schedule(clock)
                await clock.sleep(40.0)
                return scheduled

            handles = run(main())
        assert [handle.pending for handle in handles] == [False, False]
        assert log == ["fired"]
        assert not any(hasattr(handle, "cancelled") for handle in handles)

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

    def test_posts_keep_one_handle_each(self):
        """The simulator merges same-instant posts; the live clock keeps
        each post's own handle, so each fires on its own deadline."""
        async def main():
            clock = LiveClock(speedup=100.0)
            fired = []
            first = clock.post(10.0, fired.extend, ["a"])
            second = clock.post(10.0, fired.extend, ["b"])
            assert first is not second and clock.pending_events == 2
            await clock.sleep(40.0)
            assert sorted(fired) == ["a", "b"]  # real time has no same-instant order
            assert clock.events_fired == 2

        run(main())

    def test_sim_timer_rearms_on_live_clock(self):
        """The protocol's Timer (in-place re-arm via reserved seqs)
        must work unchanged against the live clock.  The loop's time is
        held and moved by the test, so no scheduling delay can carry
        the clock past the re-armed deadline."""
        loop = HeldLoop()
        clock = LiveClock(speedup=10.0, loop=loop)
        fired = []
        timer = Timer(clock, lambda: fired.append(clock.now))
        timer.start(10.0)
        timer.start(50.0)      # push-back: in-place re-arm
        loop.advance(clock.real_delay(30.0))
        assert fired == []     # stale event fired, deadline held
        loop.advance(clock.real_delay(60.0))
        assert len(fired) == 1
        assert fired[0] >= 50.0
        timer.start(5.0)       # reusable after firing
        loop.advance(clock.real_delay(40.0))
        assert len(fired) == 2

    def test_lateness_counts_fires_past_their_deadline(self):
        """A fire is late by how far the clock had passed its deadline;
        past deadlines fire at once, so their lateness is exact here."""
        loop = HeldLoop()
        clock = LiveClock(speedup=1.0, loop=loop)
        clock.at(5.0, lambda: None)          # on time
        loop.advance(clock.real_delay(20.0))
        assert clock.lateness() == {"max_lateness_ms": 0.0, "late_fires": 0}
        clock.at(15.0, lambda: None)         # 5 ms late: under LATE_MS
        clock.at(2.0, lambda: None)          # 18 ms late
        loop.advance(0.0)
        assert clock.events_fired == 3
        lateness = clock.lateness()
        assert lateness["max_lateness_ms"] == pytest.approx(18.0)
        assert lateness["late_fires"] == 1


class HeldCall:
    """A call scheduled on a :class:`HeldLoop`."""

    def __init__(self, when, callback):
        self.when = when
        self.callback = callback

    def cancel(self):
        self.callback = None


class HeldLoop:
    """The two event-loop calls :class:`LiveClock` makes — ``time`` and
    ``call_later`` — over a time that moves only in :meth:`advance`."""

    def __init__(self):
        self.now = 0.0
        self._calls = []

    def time(self):
        return self.now

    def call_later(self, delay, callback):
        call = HeldCall(self.now + delay, callback)
        self._calls.append(call)
        return call

    def advance(self, seconds):
        """Fire every call due within *seconds*, each at its own time,
        in deadline order (ties in scheduling order)."""
        until = self.now + seconds
        while True:
            due = [call for call in self._calls if call.when <= until]
            if not due:
                break
            call = min(due, key=lambda call: call.when)
            self._calls.remove(call)
            self.now = call.when
            if call.callback is not None:
                call.callback()
        self.now = until


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
