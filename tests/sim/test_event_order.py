"""The event queue is the ``(time, seq)`` total order, by property.

Generated programs — colliding firing times, callbacks that schedule
for ``now`` and later, reserve a seq now and redeem it later (also for
``now``, under a seq older than the bucket's tail), cancel anything
pending, cancel a later event of the instant being drained — run on
:class:`repro.sim.engine.Simulator` and on :class:`ListSimulator`, which keeps
a plain list and fires ``min((time, seq))``.  Both must produce the same
firing log and the same clock, ``events_fired`` and ``pending_events``
after every driver call, and ``drain()`` must raise on the same
programs.  Compaction is forced on (threshold 1) so it happens inside
callbacks, mid-bucket, all the time.

Programs may also ``post`` items, from callbacks and before the run,
also into the instant being drained.  The reference posts one event per
item; the simulator may merge them into fewer events, so there the
item-level log, the clock and whether anything is pending must match,
and ``events_fired`` may only be lower.

The same programs also start, push back, re-arm (earlier or to the same
deadline) and cancel :class:`~repro.sim.timers.Timer` objects, from callbacks
and into the instant being drained.  On the simulator the timers of one
deadline ride one event; the reference is :class:`ReferenceTimer` over
:class:`ListSimulator`, one event per arm.
"""

import gc
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.sim import engine
from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event
from repro.sim.timers import Timer


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

    def post(self, time, callback, items):
        for item in items:
            self.at(time, callback, [item])

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
            handle = self._next()
            if handle is None or handle.time > until:
                self.now = until
        return self.now

    def drain(self, max_events):
        end = self.run(max_events=max_events)
        if self._next() is not None:
            raise SimulationError("drain() exceeded max_events")
        return end


class ReferenceTimer:
    """A timer with one event per arm: pushed back in place (a reserved
    seq and one catch-up event), cancelled and rescheduled otherwise."""

    def __init__(self, sim, callback, *args):
        self.sim, self.callback, self.args = sim, callback, args
        self.event = None
        self.deadline = 0.0
        self.reserved = 0

    def start(self, delay):
        deadline = self.sim.now + delay
        if self.event is not None and self.event.pending:
            if deadline > self.event.time:
                self.deadline = deadline
                self.reserved = self.sim.reserve_seq()
                return
            self.event.cancel()
        self.deadline = deadline
        self.event = self.sim.at(deadline, self._fire)

    def cancel(self):
        if self.event is not None:
            self.event.cancel()
            self.event = None

    def _fire(self):
        if self.deadline > self.sim.now:
            self.event = self.sim.at_reserved(self.deadline, self.reserved, self._fire)
            return
        self.event = None
        self.callback(*self.args)


TIMER_OF = {Simulator: Timer, ListSimulator: ReferenceTimer}
TIMERS = 4

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

post = st.tuples(st.just("post"), st.sampled_from(DELAYS), st.integers(1, 3))
# Start (a push-back, an earlier or an equal re-arm when already armed)
# or cancel one of the program's timers.
timer_start = st.tuples(st.just("timer_start"), st.integers(0, TIMERS - 1),
                        st.sampled_from(DELAYS))
timer_cancel = st.tuples(st.just("timer_cancel"), st.integers(0, TIMERS - 1))
post_programs = st.fixed_dictionaries({
    # A time is an ``at``, a ("post", time, count) posts count items, a
    # ("timer_start", timer, delay) arms a timer.
    "initial": st.lists(st.one_of(st.sampled_from(TIMES), post, timer_start),
                        min_size=1, max_size=12),
    # The i-th *item* (a timer firing is one) to fire performs scripts[i].
    "scripts": st.lists(st.lists(st.one_of(actions, post, post, timer_start, timer_start,
                                           timer_cancel), max_size=4), max_size=30),
    "until": st.sampled_from((0.0, 1.0, 2.25, 6.0)),
    "chunk": st.integers(1, 5),
})


class Interpreter:
    """Runs one program against anything with the Simulator surface."""

    def __init__(self, sim, program):
        self.sim = sim
        self.scripts = program["scripts"]
        self.log = []
        self.handles = []
        self.reserved = []
        self.posted = 0
        timer = TIMER_OF[type(sim)]
        self.timers = [timer(sim, self.fire, ("timer", index)) for index in range(TIMERS)]
        for entry in program["initial"]:
            if not isinstance(entry, tuple):
                self.schedule(sim.at, entry)
            elif entry[0] == "post":
                self.post(*entry[1:])
            else:
                self.timers[entry[1]].start(entry[2])

    def schedule(self, at, *where):
        ident = len(self.handles)
        self.handles.append(at(*where, self.fire, ident))

    def post(self, time, count):
        """Post *count* new items, named apart from the scheduled idents."""
        items = [("post", self.posted + index) for index in range(count)]
        self.posted += count
        self.sim.post(time, self.fire_items, items)

    def fire_items(self, items):
        for ident in items:
            self.fire(ident)

    def fire(self, ident):
        sim = self.sim
        self.log.append((ident, sim.now))
        if len(self.log) > len(self.scripts):
            return
        for action in self.scripts[len(self.log) - 1]:
            kind = action[0]
            if kind == "at":
                self.schedule(sim.at, sim.now + action[1])
            elif kind == "post":
                self.post(sim.now + action[1], action[2])
            elif kind == "timer_start":
                self.timers[action[1]].start(action[2])
            elif kind == "timer_cancel":
                self.timers[action[1]].cancel()
            elif kind == "reserve":
                self.reserved.append(sim.reserve_seq())
            elif kind == "redeem" and self.reserved:
                if action[2] == 0 and isinstance(ident, tuple):
                    # A post's items, and a deadline's timers, share one
                    # event: a seq redeemed for their own instant could
                    # not cut in between them (Simulator.post's contract).
                    continue
                seq = self.reserved.pop(action[1] % len(self.reserved))
                self.schedule(sim.at_reserved, sim.now + action[2], seq)
            elif kind == "cancel" and self.handles:
                self.handles[action[1] % len(self.handles)].cancel()
            elif kind == "cancel_now":
                rest_of_instant = [handle for handle in self.handles
                                   if handle.pending and handle.time == sim.now]
                if rest_of_instant:
                    rest_of_instant[action[1] % len(rest_of_instant)].cancel()

    def state(self):
        return (self.sim.now, self.sim.events_fired, self.sim.pending_events, len(self.log))


def drive(sim, program):
    """run(until, max_events) / run(max_events) / run(until) / step /
    drain / run, with the observable state after every call."""
    interpreter = Interpreter(sim, program)
    states = [interpreter.state()]
    for call in (
        lambda: sim.run(until=program["until"], max_events=program["max_events"]),
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
    with mock.patch.object(engine, "COMPACT_MIN_DEAD", 1):
        log, states = drive(Simulator(), program)
    expected_log, expected_states = drive(ListSimulator(), program)
    assert log == expected_log
    assert states == expected_states
    assert states[-1][3] == 0  # nothing pending after the final run()


def drive_posts(sim, program):
    """run(until) / run, with the item-level state after each call, then
    the same program again in steps and ``chunk``-event runs.

    Where a run stops or steps counts events, which posts merge, so only
    the stepped run's final state is compared."""
    interpreter = Interpreter(sim, program)
    states = []
    for call in (lambda: sim.run(until=program["until"]), sim.run):
        states.append((call(), sim.pending_events > 0, list(interpreter.log)))
    fired = sim.events_fired
    assert sim.pending_events == 0
    sim = type(sim)()
    stepped = Interpreter(sim, program)
    while sim.step():
        sim.run(max_events=program["chunk"])
    states.append((sim.now, sim.pending_events > 0, stepped.log))
    assert sim.events_fired == fired
    return states, fired


def _post_example(*script):
    return {"initial": [0.0], "scripts": [list(script)], "until": 6.0, "chunk": 1}


@given(post_programs)
# A seq reserved after a post is queued must still fire before later items.
@example(_post_example(("post", 1.0, 1), ("reserve",), ("post", 1.0, 1), ("redeem", 0, 1.0)))
# Only the instant's tail event may take more items.
@example(_post_example(("post", 1.0, 1), ("at", 1.0), ("post", 1.0, 1)))
# An equal re-arm fires at its new place in its old batch.
@example(_post_example(("timer_start", 0, 1.0), ("timer_start", 1, 1.0),
                       ("timer_start", 0, 1.0)))
# A batch emptied by a cancel and an earlier re-arm is cancelled, and a
# later arm for its instant does not join it.
@example(_post_example(("timer_start", 0, 3.0), ("timer_start", 1, 3.0), ("timer_cancel", 0),
                       ("timer_start", 1, 1.0), ("timer_start", 2, 3.0)))
def test_posts_fire_like_one_event_per_item(program):
    with mock.patch.object(engine, "COMPACT_MIN_DEAD", 1):
        states, fired = drive_posts(Simulator(), program)
    expected_states, expected_fired = drive_posts(ListSimulator(), program)
    assert states == expected_states
    assert fired <= expected_fired


def test_a_batch_whose_timers_are_all_cancelled_is_cancelled():
    sim = Simulator()
    timers = [Timer(sim, pytest.fail, "a cancelled timer fired") for _ in range(3)]
    for timer in timers:
        timer.start(5.0)
    sim.at(1.0, lambda: None)
    assert sim.pending_events == 2
    timers[0].cancel()
    timers[1].start(0.5)  # an earlier re-arm leaves the batch too ...
    timers[1].cancel()    # ... and is cancelled where it went
    timers[2].cancel()
    assert sim.pending_events == 1
    assert sim.drain() == 1.0
    assert sim.pending_events == 0 and sim.events_fired == 1


class TestCompactionMidBucket:
    def test_compaction_from_a_callback_keeps_the_rest_of_the_instant(self):
        sim = Simulator()
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
                assert sim._dead > engine.COMPACT_MIN_DEAD
                handles[400] = sim.at(sim.now, fire, 400)
                assert sim._dead == 0
                assert sim._size == sim.pending_events

        for ident in range(400):
            handles[ident] = sim.at(1.0 if ident < 200 else 2.0, fire, ident)
        sim.run()
        survivors = [ident for ident in range(50, 400) if ident % 4 == 0]
        at_one = [ident for ident in survivors if ident < 200]
        at_two = [ident for ident in survivors if ident >= 200]
        assert log == list(range(50)) + at_one + [400] + at_two
        assert sim.pending_events == 0 and sim._size == 0

    def test_ten_thousand_cancelled_singletons_are_released(self):
        gc.collect()
        before = sum(type(obj) is Event for obj in gc.get_objects())
        sim = Simulator()
        handles = [sim.at(float(index + 1), lambda: None) for index in range(10_000)]
        for handle in handles:
            handle.cancel()
        sim._compact()
        del handles, handle
        gc.collect()
        assert sum(type(obj) is Event for obj in gc.get_objects()) - before < 10
        assert sim._size == 0 and sim.pending_events == 0
        # The emptied buckets are retired as the clock passes them.
        sim.at(20_000.0, lambda: None)
        assert sim.run() == 20_000.0
        assert sim._buckets == {} and sim._times == []


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
