"""Event primitives for the discrete-event simulation engine.

An :class:`Event` is a callback scheduled to fire at a simulated time.
Events are totally ordered by ``(time, sequence_number)`` so that two
events scheduled for the same instant fire in the order they were
scheduled, which keeps every simulation run deterministic.

RRMP runs in lockstep — a region's members buffer a message, go idle
and flip their coin at the *same* simulated instant — so
:class:`EventQueue` orders **instants**, not events: a heap of the
distinct pending firing times (floats, compared in C) and, per time, a
bucket of that instant's events in seq order.  The queue also keeps,
per instant, the last :meth:`~repro.sim.Simulator.post` queued there,
so later items for that instant can join its event while it is still
the bucket's tail: a region's same-instant deliveries are one event.
A post may also carry timers: :class:`~repro.sim.Timer` arms through
it, so the idle clocks a region arms for one deadline ride one event,
and a post whose timers were all cancelled is a cancelled event.

Cancellation is *lazy*: cancelling an event marks it dead but leaves it
in its bucket; the engine discards dead events when it reaches them.
This makes :meth:`Event.cancel` O(1), which matters because protocol
timers are cancelled far more often than they fire.

To keep a timer-churn-heavy run from dragging a queue full of corpses,
:class:`EventQueue` counts its dead entries and drops them in one O(n)
pass when they outnumber the live ones (:data:`COMPACT_MIN_DEAD` guards
tiny queues).  Compaction never changes firing order — the
``(time, seq)`` total order is unaffected — so runs stay bit-for-bit
reproducible.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

#: Compaction is considered only once this many dead entries have
#: accumulated; below it the queue is too small for the scan to matter.
COMPACT_MIN_DEAD = 64

_seq_of = attrgetter("seq")


class Event:
    """A single scheduled callback.

    Instances are created by the engine (:meth:`repro.sim.Simulator.at` /
    :meth:`repro.sim.Simulator.after`); user code normally only keeps a
    reference in order to :meth:`cancel` it.
    """

    __slots__ = ("time", "seq", "callback", "args", "_cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[..., None]] = callback
        self.args = args
        self._cancelled = False
        self._queue: Optional["EventQueue"] = None

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this event."""
        return self._cancelled

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting to fire.

        An event stops being pending once it fires or is cancelled.
        """
        return not self._cancelled and self.callback is not None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent and O(1)."""
        if self._cancelled:
            return
        self._cancelled = True
        # Drop references eagerly so cancelled timers do not pin protocol
        # state (members, buffers) in memory until the queue drains.
        self.callback = None
        self.args = ()
        queue = self._queue
        if queue is not None:
            queue._dead += 1

    def _fire(self) -> None:
        """Invoke the callback exactly once.  Engine-internal."""
        callback, args = self.callback, self.args
        self.callback = None
        self.args = ()
        if callback is not None:
            callback(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("pending" if self.pending else "fired")
        return f"Event(t={self.time:.3f}, seq={self.seq}, {state})"


class EventQueue:
    """A priority queue of :class:`Event` objects, bucketed by firing time.

    ``_times`` is a heap of the distinct pending times and ``_buckets``
    maps each to its unfired events in seq order, so pop order is exactly
    ``(time, seq)``; an event scheduled for the instant being drained
    joins the bucket being drained.  An emptied bucket is retired only
    at the head of ``_times``: the engine's run loop may be holding it.

    The queue tolerates lazily-cancelled events: :meth:`pop` and
    :meth:`peek_time` transparently skip events whose ``cancel`` method
    has been called, and :meth:`push` bulk-compacts the buckets when
    dead entries dominate them.
    """

    __slots__ = ("_times", "_buckets", "_posts", "_size", "_dead", "_opened")

    def __init__(self) -> None:
        self._times: List[float] = []
        self._buckets: Dict[float, Deque[Event]] = {}
        #: Per instant, the last :meth:`repro.sim.Simulator.post` queued
        #: there: its event, its callback and its item list.  Retired
        #: with the instant's bucket.
        self._posts: Dict[float, Tuple[Event, Callable[..., None], List[Any]]] = {}
        #: Queued entries, cancelled ones included.
        self._size = 0
        #: Cancelled events still sitting in a bucket.  Maintained by
        #: Event.cancel (increment) and the skip paths (decrement).
        self._dead = 0
        #: Buckets ever opened, i.e. distinct instants scheduled.
        self._opened = 0

    def push(self, event: Event) -> None:
        """Insert *event* into the queue."""
        event._queue = self
        if self._dead >= COMPACT_MIN_DEAD and self._dead * 2 >= self._size:
            self.compact()
        self._size += 1
        bucket = self._buckets.get(event.time)
        if bucket is None:
            bucket = self._buckets[event.time] = deque()
            bucket.append(event)
            heappush(self._times, event.time)
            self._opened += 1
        elif not bucket or bucket[-1].seq < event.seq:
            bucket.append(event)
        else:
            # Only a reserved seq can be older than the bucket's tail.
            insort(bucket, event, key=_seq_of)

    def _head(self) -> Optional[Deque[Event]]:
        """The earliest bucket, with its live head event at the left."""
        times, buckets = self._times, self._buckets
        while times:
            bucket = buckets[times[0]]
            while bucket and bucket[0]._cancelled:
                bucket.popleft()
                self._size -= 1
                self._dead -= 1
            if bucket:
                return bucket
            self._posts.pop(times[0], None)
            del buckets[heappop(times)]
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        bucket = self._head()
        if bucket is None:
            return None
        event = bucket.popleft()
        self._size -= 1
        # Detach so a later cancel() of the fired event cannot
        # disturb this queue's dead-entry accounting.
        event._queue = None
        return event

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, if any."""
        return self._times[0] if self._head() is not None else None

    def compact(self) -> None:
        """Drop every cancelled entry in one O(n) pass.

        Pop order is unaffected: live events keep their ``(time, seq)``
        total order.  Called automatically from :meth:`push` when dead
        entries reach half the queue; harmless to call at any time.
        """
        if self._dead == 0:
            return
        # In place, and emptied buckets stay: the engine's run loop holds
        # the bucket it is draining, so that object must survive.
        for bucket in self._buckets.values():
            live = [event for event in bucket if not event._cancelled]
            if len(live) != len(bucket):
                bucket.clear()
                bucket.extend(live)
        self._size -= self._dead
        self._dead = 0

    def __len__(self) -> int:
        """Number of queued entries, *including* cancelled ones."""
        return self._size

    @property
    def dead_count(self) -> int:
        """Cancelled events still occupying bucket slots (diagnostics)."""
        return self._dead

    def live_count(self) -> int:
        """Number of queued events that have not been cancelled.

        O(1): the queue tracks its size and its dead entries.
        """
        return self._size - self._dead

    def clear(self) -> None:
        """Drop every queued event."""
        for bucket in self._buckets.values():
            for event in bucket:
                event._queue = None
            bucket.clear()
        self._buckets.clear()
        self._posts.clear()
        self._times.clear()
        self._size = 0
        self._dead = 0
