"""Unit tests for the event primitives and the simulator's queue."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.events import Event


def make_event(time: float, seq: int, sink=None):
    sink = sink if sink is not None else []
    return Event(time, seq, sink.append, (seq,)), sink


def next_time(sim):
    """The firing time of the earliest live event, or ``None``."""
    return sim._times[0] if sim._head() is not None else None


class TestEvent:
    def test_new_event_is_pending(self):
        event, _ = make_event(1.0, 1)
        assert event.pending

    def test_cancel_marks_event(self):
        event, sink = make_event(1.0, 1)
        event.cancel()
        assert not event.pending
        event._fire()
        assert sink == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        log = []
        event = sim.at(1.0, log.append, "a")
        event.cancel()
        event.cancel()
        assert not event.pending
        assert sim._dead == 1 and sim.pending_events == 0
        sim.run()
        assert log == []

    def test_cancel_releases_callback_references(self):
        event, _ = make_event(1.0, 1)
        event.cancel()
        assert event.callback is None
        assert event.args == ()

    def test_fire_invokes_callback_with_args(self):
        event, sink = make_event(1.0, 42)
        event._fire()
        assert sink == [42]

    def test_fire_after_cancel_does_nothing(self):
        event, sink = make_event(1.0, 42)
        event.cancel()
        event._fire()
        assert sink == []

    def test_fire_is_one_shot(self):
        event, sink = make_event(1.0, 42)
        event._fire()
        event._fire()
        assert sink == [42]


class TestQueue:
    """The simulator's queue, driven through its public scheduling calls."""

    def test_step_on_empty_returns_false(self):
        assert Simulator().step() is False

    def test_step_fires_earliest(self):
        sim = Simulator()
        log = []
        sim.at(5.0, log.append, "a")
        sim.at(3.0, log.append, "b")
        assert sim.step() and log == ["b"]
        assert sim.step() and log == ["b", "a"]

    def test_same_time_fires_in_seq_order(self):
        sim = Simulator()
        log = []
        first = sim.reserve_seq()
        sim.at(1.0, log.append, "second")
        # The older seq is queued behind a newer one: it must be sorted in.
        sim.at_reserved(1.0, first, log.append, "first")
        assert sim.step() and sim.step()
        assert log == ["first", "second"]

    def test_step_skips_cancelled(self):
        sim = Simulator()
        log = []
        a = sim.at(1.0, log.append, "a")
        sim.at(2.0, log.append, "b")
        a.cancel()
        assert sim.step()
        assert log == ["b"] and sim.now == 2.0

    def test_next_time_skips_cancelled(self):
        sim = Simulator()
        a = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        a.cancel()
        assert next_time(sim) == pytest.approx(2.0)

    def test_next_time_empty(self):
        assert next_time(Simulator()) is None

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        events = [sim.at(float(i), lambda: None) for i in range(5)]
        events[0].cancel()
        events[3].cancel()
        assert sim.pending_events == 3
        assert sim._size == 5  # cancelled entries still occupy their buckets


class TestCompaction:
    """Batched removal of cancelled events from the queue."""

    def _fill(self, sim, count, log=None):
        sink = (lambda seq: None) if log is None else log.append
        return [sim.at(float(seq), sink, seq) for seq in range(1, count + 1)]

    def test_cancel_updates_dead_and_live_counts(self):
        sim = Simulator()
        events = self._fill(sim, 10)
        for event in events[:4]:
            event.cancel()
        assert sim._dead == 4
        assert sim.pending_events == 6
        assert sim._size == 10

    def test_at_compacts_when_half_dead(self):
        sim = Simulator()
        events = self._fill(sim, 200)
        for event in events[:150]:  # 75% cancelled, well past the trigger
            event.cancel()
        assert sim._size == 200
        sim.at(999.0, lambda: None)
        # The triggering schedule lands on an already-compacted queue.
        assert sim._size == 51
        assert sim._dead == 0
        assert sim.pending_events == 51

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        log = []
        events = self._fill(sim, 120, log)
        for event in events[::2]:  # cancel every other event
            event.cancel()
        sim._compact()
        while sim.step():
            pass
        assert log == [event.seq for event in events[1::2]]

    def test_small_queues_never_compact(self):
        sim = Simulator()
        events = self._fill(sim, 10)
        for event in events:
            event.cancel()
        sim.at(99.0, lambda: None)
        # Below COMPACT_MIN_DEAD the corpses stay until popped over.
        assert sim._size == 11
        assert sim.pending_events == 1

    def test_cancel_after_firing_does_not_corrupt_accounting(self):
        sim = Simulator()
        events = self._fill(sim, 5)
        assert sim.step()
        events[0].cancel()  # already out of the queue
        assert sim._dead == 0
        assert sim.pending_events == 4

    def test_explicit_compact_is_idempotent(self):
        sim = Simulator()
        events = self._fill(sim, 8)
        events[0].cancel()
        sim._compact()
        sim._compact()
        assert sim._dead == 0
        assert sim.pending_events == 7
