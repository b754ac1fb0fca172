"""The discrete-event simulation engine.

:class:`Simulator` owns the virtual clock and the event queue.  All of
``repro`` — the network model, the RRMP protocol, the baselines and the
experiment harness — advances time exclusively through this class, which
is what makes every run reproducible from a single seed.

Time is a ``float`` in **milliseconds**, matching the units used in the
paper's evaluation (10 ms intra-region round-trip time, 40 ms idle
threshold).
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Optional

from repro.sim import events as _events
from repro.sim.events import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised on invalid use of the engine (e.g. scheduling in the past)."""


#: Process-wide count of events fired across every Simulator instance.
#: The sweep runner and the benchmark harness read deltas of this to
#: attribute simulation work to individual trials, including trials
#: executed in worker processes.
_total_events_fired = 0

_INF = float("inf")


def total_events_fired() -> int:
    """Events fired in this process, across all simulators ever created."""
    return _total_events_fired


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
        self._queue = EventQueue()
        self._seq = 0
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
        return self._queue.live_count()

    @property
    def instants_opened(self) -> int:
        """Distinct firing times scheduled so far: heap entries paid for."""
        return self._queue._opened

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
        queue = self._queue
        bucket = queue._buckets.get(time)
        if bucket is None or (queue._dead >= _events.COMPACT_MIN_DEAD
                              and queue._dead * 2 >= queue._size):
            queue.push(event)
        else:
            # A fresh seq is the largest yet: it goes at the bucket's tail.
            event._queue = queue
            queue._size += 1
            bucket.append(event)
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

        Determinism-preserving support for :class:`repro.sim.Timer`'s
        in-place re-arm: a push-back burns a sequence number exactly as
        the cancel-and-reschedule it replaces would have, so same-time
        tie-breaking of every subsequent event is unchanged, and the
        timer's eventual catch-up event (:meth:`at_reserved`) fires in
        precisely the order the rescheduled event would have.
        """
        self._seq += 1
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
        self._queue.push(event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single earliest event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty (time does not advance in that case).
        """
        event = self._queue.pop()
        if event is None:
            return False
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
        samples line up across runs.  Returns the final simulated time.

        The loop is the simulator's hottest code: it works on the
        queue's heap of instants and their buckets directly instead of
        going through :meth:`EventQueue.peek_time` + :meth:`step`, so an
        instant costs one heap operation however many events share it.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        queue = self._queue
        # EventQueue.compact() and clear() work in place and only the
        # head of ``times`` is ever retired, so these aliases and the
        # bucket being drained stay valid whatever a callback does.
        times, buckets = queue._times, queue._buckets
        limit = _INF if max_events is None else max_events
        fired = 0
        try:
            while times:
                time = times[0]
                bucket = buckets[time]
                if not bucket:
                    del buckets[heappop(times)]
                    continue
                if until is not None and time > until:
                    break
                popleft = bucket.popleft
                # A callback scheduling for ``now`` appends to this very
                # bucket, so the loop ends only when the instant is over.
                while bucket and fired < limit:
                    event = popleft()
                    queue._size -= 1
                    if event._cancelled:
                        queue._dead -= 1
                        continue
                    event._queue = None
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
        next_time = self._queue.peek_time()
        if next_time is not None:
            raise SimulationError(
                f"drain() exceeded max_events={max_events}: "
                f"{self._queue.live_count()} live events still queued, "
                f"next pending at t={next_time:.6f} (now={self.now:.6f})"
            )
        return end
