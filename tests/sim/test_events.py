"""Unit tests for the event primitives."""

import pytest

from repro.sim.events import Event, EventQueue


def make_event(time: float, seq: int, sink=None):
    sink = sink if sink is not None else []
    return Event(time, seq, sink.append, (seq,)), sink


class TestEvent:
    def test_new_event_is_pending(self):
        event, _ = make_event(1.0, 1)
        assert event.pending
        assert not event.cancelled

    def test_cancel_marks_event(self):
        event, _ = make_event(1.0, 1)
        event.cancel()
        assert event.cancelled
        assert not event.pending

    def test_cancel_is_idempotent(self):
        event, _ = make_event(1.0, 1)
        event.cancel()
        event.cancel()
        assert event.cancelled

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


class TestEventQueue:
    def test_pop_empty_returns_none(self):
        queue = EventQueue()
        assert queue.pop() is None

    def test_pop_returns_earliest(self):
        queue = EventQueue()
        a, _ = make_event(5.0, 1)
        b, _ = make_event(3.0, 2)
        queue.push(a)
        queue.push(b)
        assert queue.pop() is b
        assert queue.pop() is a

    def test_same_time_pops_in_schedule_order(self):
        queue = EventQueue()
        first, _ = make_event(1.0, 1)
        second, _ = make_event(1.0, 2)
        queue.push(second)
        queue.push(first)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_pop_skips_cancelled(self):
        queue = EventQueue()
        a, _ = make_event(1.0, 1)
        b, _ = make_event(2.0, 2)
        queue.push(a)
        queue.push(b)
        a.cancel()
        assert queue.pop() is b

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        a, _ = make_event(1.0, 1)
        b, _ = make_event(2.0, 2)
        queue.push(a)
        queue.push(b)
        a.cancel()
        assert queue.peek_time() == pytest.approx(2.0)

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_live_count_excludes_cancelled(self):
        queue = EventQueue()
        events = [make_event(float(i), i)[0] for i in range(5)]
        for event in events:
            queue.push(event)
        events[0].cancel()
        events[3].cancel()
        assert queue.live_count() == 3
        assert len(queue) == 5  # cancelled entries still occupy their buckets

    def test_clear_empties_queue(self):
        queue = EventQueue()
        queue.push(make_event(1.0, 1)[0])
        queue.clear()
        assert len(queue) == 0
        assert queue.pop() is None


class TestCompaction:
    """Batched removal of cancelled events from the queue."""

    def _fill(self, queue, count):
        events = []
        for seq in range(1, count + 1):
            event = Event(float(seq), seq, lambda: None)
            queue.push(event)
            events.append(event)
        return events

    def test_cancel_updates_dead_and_live_counts(self):
        queue = EventQueue()
        events = self._fill(queue, 10)
        for event in events[:4]:
            event.cancel()
        assert queue.dead_count == 4
        assert queue.live_count() == 6
        assert len(queue) == 10

    def test_push_compacts_when_half_dead(self):
        queue = EventQueue()
        events = self._fill(queue, 200)
        for event in events[:150]:  # 75% cancelled, well past the trigger
            event.cancel()
        assert len(queue) == 200
        queue.push(Event(999.0, 999, lambda: None))
        # The triggering push lands on an already-compacted queue.
        assert len(queue) == 51
        assert queue.dead_count == 0
        assert queue.live_count() == 51

    def test_compaction_preserves_pop_order(self):
        queue = EventQueue()
        events = self._fill(queue, 120)
        for event in events[::2]:  # cancel every other event
            event.cancel()
        queue.compact()
        popped = []
        while True:
            event = queue.pop()
            if event is None:
                break
            popped.append(event.seq)
        assert popped == [event.seq for event in events[1::2]]

    def test_small_queues_never_compact(self):
        queue = EventQueue()
        events = self._fill(queue, 10)
        for event in events:
            event.cancel()
        queue.push(Event(99.0, 99, lambda: None))
        # Below COMPACT_MIN_DEAD the corpses stay until popped over.
        assert len(queue) == 11
        assert queue.live_count() == 1

    def test_cancel_after_pop_does_not_corrupt_accounting(self):
        queue = EventQueue()
        self._fill(queue, 5)
        event = queue.pop()
        event.cancel()  # already out of the queue
        assert queue.dead_count == 0
        assert queue.live_count() == 4

    def test_explicit_compact_is_idempotent(self):
        queue = EventQueue()
        events = self._fill(queue, 8)
        events[0].cancel()
        queue.compact()
        queue.compact()
        assert queue.dead_count == 0
        assert queue.live_count() == 7
