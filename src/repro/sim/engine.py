"""The discrete-event simulation engine.

:class:`Simulator` owns the virtual clock and the event queue.  All of
``repro`` — the network model, the RRMP protocol, the baselines and the
experiment harness — advances time exclusively through this class, which
is what makes every run reproducible from a single seed.

Time is a ``float`` in **milliseconds**, matching the units used in the
paper's evaluation (10 ms intra-region round-trip time, 40 ms idle
threshold).

RRMP runs in lockstep — a region's members buffer a message, go idle
and flip their coin at the *same* simulated instant — so the queue
orders **instants**, not events: a heap of the distinct pending firing
times (floats, compared in C) and, per time, a bucket of that instant's
events in seq order.  The simulator also keeps, per instant, the last
:meth:`Simulator.post` queued there, so later items for that instant
can join its event while it is still the bucket's tail: a region's
same-instant deliveries are one event.  A post may also carry timers:
:class:`~repro.sim.timers.Timer` arms through it, so the idle clocks a region
arms for one deadline ride one event, and a post whose timers were all
cancelled is a cancelled event.

Cancelled events stay in their buckets until the clock reaches them
(:class:`~repro.sim.events.Event`).  To keep a timer-churn-heavy run
from dragging a queue full of corpses, the simulator counts its dead
entries and drops them in one O(n) pass when they outnumber the live
ones (:data:`COMPACT_MIN_DEAD` guards tiny queues).  Compaction never
changes firing order — the ``(time, seq)`` total order is unaffected —
so runs stay bit-for-bit reproducible.

**The collector.**  A run creates no reference cycles: what it frees
(fired events, finished searches, a dropped copy's clock) dies by
reference count alone, and what it keeps stays reachable until the
run returns.  So CPython's cyclic collector, which would re-walk every
live member, buffer record and trace record of the group on its
thresholds and find nothing, is paused while :meth:`Simulator.run`
fires events (:func:`collector_paused`) and left as found on every
exit, exceptions included.  A change that makes a cycle during a run
breaks this contract; ``tests/sim/test_collector.py`` and the fuzzer
(each run must leave ``gc.collect() == 0``) catch it.
"""

from __future__ import annotations

import gc
from bisect import insort
from collections import deque
from contextlib import contextmanager
from heapq import heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.sim.events import Event


class SimulationError(RuntimeError):
    """Raised on invalid use of the engine (e.g. scheduling in the past)."""


#: Process-wide count of events fired across every Simulator instance.
#: The sweep runner and the benchmark harness read deltas of this to
#: attribute simulation work to individual trials, including trials
#: executed in worker processes.
_total_events_fired = 0

_INF = float("inf")

#: Compaction is considered only once this many dead entries have
#: accumulated; below it the queue is too small for the scan to matter.
COMPACT_MIN_DEAD = 64

_seq_of = attrgetter("seq")


def total_events_fired() -> int:
    """Events fired in this process, across all simulators ever created."""
    return _total_events_fired


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic collector off for the block, then restore the
    state found: re-enabled if it was on, on every exit, exceptions
    included; left off if it was off.  Adds no threshold, freeze or
    forced collection: what the block allocated stays in the young
    generation, and the first collection after it frees what died."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Simulator:
    """A single-threaded discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.after(5.0, fired.append, "a")
    >>> _ = sim.after(1.0, fired.append, "b")
    >>> sim.run()
    6.0
    >>> fired
    ['b', 'a']
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time in milliseconds.  A plain attribute
        #: for speed, but read-only by contract: only the engine (the
        #: run loop, :meth:`step` and ``run(until=...)``) writes it.
        self.now = float(start_time)
        #: The queue: a heap of the distinct pending times, and per time
        #: its unfired events in seq order, so firing order is exactly
        #: ``(time, seq)``.  An emptied bucket is retired only at the
        #: head of ``_times``: the run loop may be holding it.
        self._times: List[float] = []
        self._buckets: Dict[float, Deque[Event]] = {}
        #: Per instant, the last :meth:`post` queued there: its event,
        #: its callback and its item list.  Retired with the bucket.
        self._posts: Dict[float, Tuple[Event, Callable[..., None], List[Any]]] = {}
        #: Queued entries, cancelled ones included.
        self._size = 0
        #: Cancelled events still sitting in a bucket: counted up by
        #: :meth:`_note_dead`, down where a dead entry is dropped.
        self._dead = 0
        #: Buckets ever opened, i.e. distinct instants scheduled.
        self._opened = 0
        self._seq = 0
        #: The last seq :meth:`reserve_seq` handed out: no post queued
        #: before it may take more items (see :meth:`post`).
        self._reserved = 0
        self._running = False
        self._events_fired = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (diagnostics)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of live events still queued."""
        return self._size - self._dead

    @property
    def instants_opened(self) -> int:
        """Distinct firing times scheduled so far: heap entries paid for."""
        return self._opened

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule *callback(*args)* at absolute simulated *time*.

        Scheduling exactly at ``now`` is allowed (the event fires before
        time advances); scheduling in the past, or at a non-finite time,
        raises :class:`SimulationError`.
        """
        if not self.now <= time < _INF:
            raise self._refusal(time)
        self._seq += 1
        event = Event(time, self._seq, callback, args)
        bucket = self._buckets.get(time)
        if bucket is None or (self._dead >= COMPACT_MIN_DEAD
                              and self._dead * 2 >= self._size):
            self._push(event)
        else:
            # A fresh seq is the largest yet: it goes at the bucket's tail.
            event._sim = self
            self._size += 1
            bucket.append(event)
        return event

    def post(self, time: float, callback: Callable[[List[Any]], None],
             items: List[Any]) -> Event:
        """Schedule ``callback(items)`` at *time*, one event for many items.

        A region acts in lockstep, so a §2.2 request storm lands many
        packets on the same instants, and its members' idle clocks
        expire together; the network posts its deliveries and
        :class:`~repro.sim.timers.Timer` its arms, and the items of one instant
        ride one event.

        If the last event queued for *time* is an earlier, uncancelled
        post of the same *callback* (``==``, so a fresh bound method of
        the same object matches), and no seq has been reserved since
        that post was queued, *items* join its list instead (``+=``, so
        a list subclass may note the merge).  The tail of an instant,
        with no reservation in between, is exactly where one :meth:`at`
        per item would have fired them, so firing order is unchanged;
        only :attr:`events_fired` counts fewer.  The post owns *items*
        from here on.  Returns the event *items* ride.

        What a batch cannot do is let a seq reserved before it be
        redeemed for its own instant while it fires (:meth:`at_reserved`
        with ``time == now``): that event would follow the batch's last
        item, not the current one.  :class:`~repro.sim.timers.Timer` redeems
        only for a later deadline.
        """
        posts = self._posts
        open_post = posts.get(time)
        if open_post is not None:
            event, open_callback, open_items = open_post
            if (open_callback == callback and event.seq > self._reserved
                    and not event._cancelled):
                bucket = self._buckets[time]
                if bucket and bucket[-1] is event:
                    open_items += items
                    return event
        # Through ``at``, so whatever wraps it sees the batch event.
        event = self.at(time, callback, items)
        posts[time] = (event, callback, items)
        return event

    def _refusal(self, time: float) -> SimulationError:
        why = f"before now={self.now:.6f}" if time < self.now else "not finite"
        return SimulationError(f"cannot schedule at t={time:.6f}, which is {why}")

    def after(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule *callback(*args)* *delay* milliseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at(self.now + delay, callback, *args)

    def reserve_seq(self) -> int:
        """Consume and return the next event sequence number.

        Determinism-preserving support for :class:`repro.sim.timers.Timer`'s
        in-place re-arm: a push-back burns a sequence number exactly as
        the cancel-and-reschedule it replaces would have, so same-time
        tie-breaking of every subsequent event is unchanged, and the
        timer's eventual catch-up event (:meth:`at_reserved`) fires in
        precisely the order the rescheduled event would have.  It also
        closes every open :meth:`post`, which that event may follow.
        """
        self._seq += 1
        self._reserved = self._seq
        return self._seq

    def at_reserved(self, time: float, seq: int, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule *callback* at *time* with a previously reserved seq.

        *seq* must come from :meth:`reserve_seq` and be used at most
        once; reusing a live event's seq would break the total order.
        """
        if not self.now <= time < _INF:
            raise self._refusal(time)
        event = Event(time, seq, callback, args)
        self._push(event)
        return event

    def _push(self, event: Event) -> None:
        """Queue *event*, compacting first when dead entries dominate."""
        event._sim = self
        if self._dead >= COMPACT_MIN_DEAD and self._dead * 2 >= self._size:
            self._compact()
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

    def _note_dead(self) -> None:
        """A queued event was cancelled (:meth:`Event.cancel`)."""
        self._dead += 1

    def _head(self) -> Optional[Deque[Event]]:
        """The earliest bucket, with its live head event at the left,
        or ``None`` when nothing live is queued."""
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

    def _compact(self) -> None:
        """Drop every cancelled entry in one O(n) pass.

        Firing order is unaffected: live events keep their ``(time,
        seq)`` total order.  Called from :meth:`_push` when dead entries
        reach half the queue.
        """
        if self._dead == 0:
            return
        # In place, and emptied buckets stay: the run loop holds the
        # bucket it is draining, so that object must survive.
        for bucket in self._buckets.values():
            live = [event for event in bucket if not event._cancelled]
            if len(live) != len(bucket):
                bucket.clear()
                bucket.extend(live)
        self._size -= self._dead
        self._dead = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single earliest event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty (time does not advance in that case).
        """
        bucket = self._head()
        if bucket is None:
            return False
        event = bucket.popleft()
        self._size -= 1
        # Detach so a later cancel() of the fired event cannot disturb
        # the dead-entry accounting.
        event._sim = None
        global _total_events_fired
        self.now = event.time
        self._events_fired += 1
        _total_events_fired += 1
        event._fire()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, *until* is reached, or *max_events* fire.

        When *until* is given, time is advanced to exactly *until* even
        if the queue drains earlier, so occupancy probes and time-series
        samples line up across runs; but never past a live event that
        *max_events* left unfired.  Returns the final simulated time.

        The loop is the simulator's hottest code: it drains a whole
        instant's bucket before it looks at the heap again, so an
        instant costs one heap operation however many events share it.
        The cyclic collector is off while it fires (module docstring).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        # _compact() works in place and only the head of ``times`` is
        # ever retired, so these aliases and the bucket being drained
        # stay valid whatever a callback does.
        times, buckets, posts = self._times, self._buckets, self._posts
        limit = _INF if max_events is None else max_events
        fired = 0
        with collector_paused():
            try:
                while times:
                    time = times[0]
                    bucket = buckets[time]
                    if not bucket:
                        del buckets[heappop(times)]
                        if time in posts:
                            del posts[time]
                        continue
                    if until is not None and time > until:
                        break
                    popleft = bucket.popleft
                    # A callback scheduling for ``now`` appends to this very
                    # bucket, so the loop ends only when the instant is over.
                    while bucket and fired < limit:
                        event = popleft()
                        self._size -= 1
                        if event._cancelled:
                            self._dead -= 1
                            continue
                        event._sim = None
                        self.now = time
                        fired += 1
                        self._events_fired += 1
                        callback, args = event.callback, event.args
                        event.callback = None
                        event.args = ()
                        if callback is not None:
                            callback(*args)
                    if bucket:  # max_events stopped the run mid-instant
                        break
            finally:
                self._running = False
                global _total_events_fired
                _total_events_fired += fired
        if until is not None and self.now < until:
            if self._head() is None or times[0] > until:
                self.now = until
        return self.now

    def run_for(self, duration: float, max_events: Optional[int] = None) -> float:
        """Run for *duration* milliseconds of simulated time."""
        return self.run(until=self.now + duration, max_events=max_events)

    def drain(self, max_events: int = 10_000_000) -> float:
        """Run until no live events remain.

        *max_events* bounds runaway simulations (e.g. a protocol bug that
        reschedules forever); exceeding it raises :class:`SimulationError`
        whose message names the remaining live events and the next
        pending deadline, so the runaway source is identifiable.
        """
        end = self.run(max_events=max_events)
        if self._head() is not None:
            raise SimulationError(
                f"drain() exceeded max_events={max_events}: "
                f"{self.pending_events} live events still queued, "
                f"next pending at t={self._times[0]:.6f} (now={self.now:.6f})"
            )
        return end
