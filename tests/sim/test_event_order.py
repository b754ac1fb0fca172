"""The event queue is the ``(time, seq)`` total order, by property.

Generated programs — colliding firing times, callbacks that schedule
for ``now`` and later, reserve a seq now and redeem it later (also for
``now``, under a seq older than the bucket's tail), cancel anything
pending, cancel a later event of the instant being drained — run on
:class:`repro.sim.Simulator` and on :class:`ListSimulator`, which keeps
a plain list and fires ``min((time, seq))``.  Both must produce the same
firing log and the same clock, ``events_fired`` and ``pending_events``
after every driver call, and ``drain()`` must raise on the same
programs.  Compaction is forced on (threshold 1) so it happens inside
callbacks, mid-bucket, all the time.
"""

import gc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Simulator, events
from repro.sim.engine import SimulationError
from repro.sim.events import Event, EventQueue


class _Handle:
    def __init__(self, time, seq, callback, args):
        self.time, self.seq, self.callback, self.args = time, seq, callback, args
        self.pending = True

    def cancel(self):
        self.pending = False


class ListSimulator:
    """Reference model: no heap, no buckets, no lazy cancellation."""

    def __init__(self):
        self.now = 0.0
        self.events_fired = 0
        self._seq = 0
        self._handles = []

    def at(self, time, callback, *args):
        return self.at_reserved(time, self.reserve_seq(), callback, *args)

    def reserve_seq(self):
        self._seq += 1
        return self._seq

    def at_reserved(self, time, seq, callback, *args):
        assert time >= self.now
        handle = _Handle(time, seq, callback, args)
        self._handles.append(handle)
        return handle

    @property
    def pending_events(self):
        return sum(handle.pending for handle in self._handles)

    def _next(self):
        live = [handle for handle in self._handles if handle.pending]
        return min(live, key=lambda handle: (handle.time, handle.seq)) if live else None

    def _fire(self, handle):
        handle.pending = False
        self.now = handle.time
        self.events_fired += 1
        handle.callback(*handle.args)

    def step(self):
        handle = self._next()
        if handle is None:
            return False
        self._fire(handle)
        return True

    def run(self, until=None, max_events=None):
        fired = 0
        while (handle := self._next()) is not None:
            if max_events is not None and fired >= max_events:
                break
            if until is not None and handle.time > until:
                break
            fired += 1
            self._fire(handle)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def drain(self, max_events):
        end = self.run(max_events=max_events)
        if self._next() is not None:
            raise SimulationError("drain() exceeded max_events")
        return end


TIMES = (0.0, 1.0, 1.0, 1.0, 2.0, 2.5, 4.0)
DELAYS = (0.0, 0.0, 0.5, 1.0, 3.0)

actions = st.one_of(
    st.tuples(st.just("at"), st.sampled_from(DELAYS)),
    st.tuples(st.just("reserve")),
    st.tuples(st.just("redeem"), st.integers(0, 7), st.sampled_from(DELAYS)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("cancel_now"), st.integers(0, 7)),
)
programs = st.fixed_dictionaries({
    "initial": st.lists(st.sampled_from(TIMES), min_size=1, max_size=12),
    # The i-th event to fire performs scripts[i]; later ones do nothing,
    # so every program terminates.
    "scripts": st.lists(st.lists(actions, max_size=4), max_size=30),
    "max_events": st.integers(0, 12),
    "until": st.sampled_from((0.0, 1.0, 2.25, 6.0)),
    "drain_budget": st.integers(0, 40),
})


class Interpreter:
    """Runs one program against anything with the Simulator surface."""

    def __init__(self, sim, program):
        self.sim = sim
        self.scripts = program["scripts"]
        self.log = []
        self.handles = []
        self.reserved = []
        for time in program["initial"]:
            self.schedule(sim.at, time)

    def schedule(self, at, *where):
        ident = len(self.handles)
        self.handles.append(at(*where, self.fire, ident))

    def fire(self, ident):
        sim = self.sim
        self.log.append((ident, sim.now))
        if len(self.log) > len(self.scripts):
            return
        for action in self.scripts[len(self.log) - 1]:
            kind = action[0]
            if kind == "at":
                self.schedule(sim.at, sim.now + action[1])
            elif kind == "reserve":
                self.reserved.append(sim.reserve_seq())
            elif kind == "redeem" and self.reserved:
                seq = self.reserved.pop(action[1] % len(self.reserved))
                self.schedule(sim.at_reserved, sim.now + action[2], seq)
            elif kind == "cancel":
                self.handles[action[1] % len(self.handles)].cancel()
            elif kind == "cancel_now":
                rest_of_instant = [handle for handle in self.handles
                                   if handle.pending and handle.time == sim.now]
                if rest_of_instant:
                    rest_of_instant[action[1] % len(rest_of_instant)].cancel()

    def state(self):
        return (self.sim.now, self.sim.events_fired, self.sim.pending_events, len(self.log))


def drive(sim, program):
    """run(max_events) / run(until) / step / drain / run, with the
    observable state after every call."""
    interpreter = Interpreter(sim, program)
    states = [interpreter.state()]
    for call in (
        lambda: sim.run(max_events=program["max_events"]),
        lambda: sim.run(until=program["until"]),
        sim.step,
        lambda: sim.drain(max_events=program["drain_budget"]),
        sim.run,
    ):
        try:
            outcome = call()
        except SimulationError:
            outcome = "raised"
        states.append((outcome,) + interpreter.state())
    return interpreter.log, states


@given(programs)
def test_fires_in_time_seq_order_like_a_plain_list(program):
    with mock.patch.object(events, "COMPACT_MIN_DEAD", 1):
        log, states = drive(Simulator(), program)
    expected_log, expected_states = drive(ListSimulator(), program)
    assert log == expected_log
    assert states == expected_states
    assert states[-1][3] == 0  # nothing pending after the final run()


class TestCompactionMidBucket:
    def test_compaction_from_a_callback_keeps_the_rest_of_the_instant(self):
        sim = Simulator()
        queue = sim._queue
        log = []
        handles = {}

        def fire(ident):
            log.append(ident)
            if ident == 49:
                # Half the instant has fired.  Kill three quarters of
                # what is left, here and at t=2, then push: that push
                # compacts the bucket the run loop is draining.
                for doomed in range(50, 400):
                    if doomed % 4:
                        handles[doomed].cancel()
                assert queue.dead_count > events.COMPACT_MIN_DEAD
                handles[400] = sim.at(sim.now, fire, 400)
                assert queue.dead_count == 0
                assert len(queue) == sim.pending_events

        for ident in range(400):
            handles[ident] = sim.at(1.0 if ident < 200 else 2.0, fire, ident)
        sim.run()
        survivors = [ident for ident in range(50, 400) if ident % 4 == 0]
        at_one = [ident for ident in survivors if ident < 200]
        at_two = [ident for ident in survivors if ident >= 200]
        assert log == list(range(50)) + at_one + [400] + at_two
        assert sim.pending_events == 0 and len(queue) == 0

    def test_ten_thousand_cancelled_singletons_are_released(self):
        gc.collect()
        before = sum(type(obj) is Event for obj in gc.get_objects())
        sim = Simulator()
        handles = [sim.at(float(index + 1), lambda: None) for index in range(10_000)]
        for handle in handles:
            handle.cancel()
        sim._queue.compact()
        del handles, handle
        gc.collect()
        assert sum(type(obj) is Event for obj in gc.get_objects()) - before < 10
        assert len(sim._queue) == 0 and sim.pending_events == 0
        # The emptied buckets are retired as the clock passes them.
        sim.at(20_000.0, lambda: None)
        assert sim.run() == 20_000.0
        assert sim._queue._buckets == {} and sim._queue._times == []


class TestClear:
    def test_clear_forgets_every_instant(self):
        queue = EventQueue()
        kept = [Event(1.0, seq, lambda: None) for seq in (1, 2, 3)]
        for event in kept:
            queue.push(event)
        kept[0].cancel()
        queue.clear()
        assert len(queue) == 0 and queue.live_count() == 0 and queue.dead_count == 0
        assert queue.pop() is None and queue.peek_time() is None
        kept[1].cancel()  # no longer this queue's: accounting untouched
        assert queue.dead_count == 0
        again = Event(1.0, 4, lambda: None)
        queue.push(again)
        assert queue.pop() is again

    def test_clear_from_a_callback_ends_the_run(self):
        sim = Simulator()
        log = []

        def fire(ident):
            log.append(ident)
            if ident == 1:
                sim._queue.clear()

        for ident in range(4):
            sim.at(1.0, fire, ident)
        sim.at(2.0, fire, 4)
        assert sim.run() == 1.0
        assert log == [0, 1]
        assert sim.pending_events == 0


def test_a_reserved_seq_redeemed_for_now_fires_before_newer_events():
    sim = Simulator()
    log = []
    old_seq = sim.reserve_seq()

    def first():
        log.append("first")
        sim.at_reserved(sim.now, old_seq, log.append, "reserved")

    sim.at(1.0, first)
    sim.at(1.0, log.append, "second")
    sim.run()
    assert log == ["first", "reserved", "second"]


def test_step_from_inside_run_takes_the_next_event_in_order():
    sim = Simulator()
    log = []

    def nested():
        log.append("outer")
        assert sim.step()

    sim.at(1.0, nested)
    sim.at(2.0, log.append, "stepped")
    sim.at(3.0, log.append, "last")
    sim.run()
    assert log == ["outer", "stepped", "last"]
    assert sim.events_fired == 3 and sim.pending_events == 0


@pytest.mark.parametrize("collide", [True, False])
def test_instants_opened_counts_distinct_times(collide):
    sim = Simulator()
    for index in range(50):
        sim.at(1.0 if collide else float(index), lambda: None)
    assert sim.instants_opened == (1 if collide else 50)
    sim.run()
    assert sim.events_fired == 50
