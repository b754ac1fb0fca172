"""Wall-clock implementation of the runtime :class:`~repro.live.runtime.Clock`.

:class:`LiveClock` maps the protocol's virtual milliseconds onto an
asyncio event loop.  A *speedup* factor scales the mapping: at
``speedup=1`` one virtual millisecond is one real millisecond; at
``speedup=10`` the run executes ten times faster than real time (the
loopback differential tests use this so a 2.5-second scenario horizon
finishes in a quarter of a second).  All protocol timers — recovery
rounds, idle thresholds, session heartbeats — are expressed in virtual
time, so a scaled run exercises exactly the same schedule, compressed.

Unlike :class:`repro.sim.engine.Simulator`, which raises on scheduling in the
past, the live clock clamps past deadlines to "fire as soon as
possible": real time keeps moving between computing a deadline and
scheduling it, so a hard error would turn slow hosts into crashes.
Each fire's lateness (virtual ms past its deadline) is counted instead
(:meth:`LiveClock.lateness`), so a run can say whether the host fell
behind; the counters never feed a digest.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional, Set


#: A fire this many virtual ms past its deadline counts as late.
LATE_MS = 10.0


class LiveHandle:
    """A scheduled callback on a :class:`LiveClock`.

    Mirrors the :class:`repro.sim.events.Event` surface that
    :class:`repro.sim.timers.Timer` relies on: ``time``, ``seq``, ``pending``
    and ``cancel()``.  A handle that fired and one that was cancelled
    both read ``pending`` False; neither clock tells them apart.
    """

    __slots__ = ("time", "seq", "_clock", "_timer", "_callback", "_args", "_done")

    def __init__(self, clock: "LiveClock", time: float, seq: int,
                 callback: Callable[..., None], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self._clock = clock
        self._timer: Optional[asyncio.TimerHandle] = None
        self._callback: Optional[Callable[..., None]] = callback
        self._args = args
        self._done = False

    @property
    def pending(self) -> bool:
        """Whether the callback is still waiting to fire."""
        return not self._done

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent and O(1)."""
        if self._done:
            return
        self._done = True
        if self._timer is not None:
            self._timer.cancel()
        self._timer = None
        self._callback = None
        self._args = ()
        self._clock._retire(self)

    def _fire(self) -> None:
        if self._done:
            return
        self._done = True
        callback, args = self._callback, self._args
        self._callback = None
        self._args = ()
        self._timer = None
        self._clock._fired(self)
        if callback is not None:
            callback(*args)


class LiveClock:
    """Virtual-millisecond clock over an asyncio event loop."""

    def __init__(self, speedup: float = 1.0, held: bool = False,
                 loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        if not 0 < speedup < float("inf"):  # also refuses nan
            raise ValueError(f"speedup must be finite and > 0, got {speedup!r}")
        self.speedup = speedup
        self._loop = loop
        self._epoch: Optional[float] = None
        self._seq = 0
        self._events_fired = 0
        self._max_lateness = 0.0
        self._late_fires = 0
        self._live: Set[LiveHandle] = set()
        self._held = held
        self._deferred: list = []

    # ------------------------------------------------------------------
    # Loop binding
    # ------------------------------------------------------------------
    def _bind(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
        if self._epoch is None:
            self._epoch = self._loop.time()
        return self._loop

    # ------------------------------------------------------------------
    # Clock surface
    # ------------------------------------------------------------------
    @property
    def held(self) -> bool:
        """Whether the clock is frozen at time zero (setup phase)."""
        return self._held

    def release(self) -> None:
        """Start a held clock: time begins at zero *now*.

        Everything scheduled while held is scheduled for real at this
        point, with delays measured from the release instant.  A
        session holds its clock through construction and workload
        injection — building a hundred members takes real milliseconds,
        and letting the clock run through setup would eat into the
        protocol's first timers (a 40 ms idle threshold can expire
        before the last member even exists).  Mirrors the simulator,
        where arbitrarily much construction happens "at" t=0.
        """
        if not self._held:
            return
        loop = self._bind()
        self._held = False
        self._epoch = loop.time()
        deferred, self._deferred = self._deferred, []
        for handle in deferred:
            if handle.pending:
                real = self.real_delay(handle.time - self.now)
                handle._timer = loop.call_later(max(0.0, real), handle._fire)

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds since the epoch."""
        if self._held:
            return 0.0
        if self._epoch is None:
            self._bind()
        return (self._loop.time() - self._epoch) * 1000.0 * self.speedup

    @property
    def pending_events(self) -> int:
        """Live (not fired, not cancelled) scheduled callbacks."""
        return len(self._live)

    @property
    def events_fired(self) -> int:
        """Total callbacks executed so far."""
        return self._events_fired

    def lateness(self) -> Dict[str, float]:
        """How far behind the host ran: the most virtual ms any callback
        fired past its deadline, and how many fired more than
        :data:`LATE_MS` late.  ``events_fired`` is the base."""
        return {"max_lateness_ms": self._max_lateness, "late_fires": self._late_fires}

    def after(self, delay: float, callback: Callable[..., None], *args: Any) -> LiveHandle:
        """Schedule *callback(*args)* *delay* virtual ms from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self.at(self.now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., None], *args: Any) -> LiveHandle:
        """Schedule at absolute virtual *time* (past times fire at once)."""
        self._seq += 1
        return self._schedule(time, self._seq, callback, args)

    def post(self, time: float, callback: Callable[[list], None], items: list) -> LiveHandle:
        """Schedule ``callback(items)`` at *time*: one handle per call.

        The simulator merges same-instant posts into one event; here
        every post keeps its own handle, so each fires on its own
        deadline as it always did (:class:`~repro.sim.timers.Timer` arms
        through this).
        """
        return self.at(time, callback, items)

    def reserve_seq(self) -> int:
        """Consume the next scheduling sequence number (Timer re-arm)."""
        self._seq += 1
        return self._seq

    def at_reserved(self, time: float, seq: int, callback: Callable[..., None],
                    *args: Any) -> LiveHandle:
        """Schedule under a previously reserved sequence number."""
        return self._schedule(time, seq, callback, args)

    def _schedule(self, time: float, seq: int, callback: Callable[..., None],
                  args: tuple) -> LiveHandle:
        handle = LiveHandle(self, time, seq, callback, args)
        if self._held:
            self._deferred.append(handle)
        else:
            loop = self._bind()
            real_delay = self.real_delay(time - self.now)
            handle._timer = loop.call_later(max(0.0, real_delay), handle._fire)
        self._live.add(handle)
        return handle

    # ------------------------------------------------------------------
    # Handle bookkeeping
    # ------------------------------------------------------------------
    def _fired(self, handle: LiveHandle) -> None:
        self._events_fired += 1
        self._live.discard(handle)
        late = self.now - handle.time
        if late > LATE_MS:
            self._late_fires += 1
        if late > self._max_lateness:
            self._max_lateness = late

    def _retire(self, handle: LiveHandle) -> None:
        self._live.discard(handle)

    def cancel_all(self) -> int:
        """Cancel every live handle (teardown); returns how many."""
        live = list(self._live)
        for handle in live:
            handle.cancel()
        return len(live)

    # ------------------------------------------------------------------
    # Conversions and async helpers
    # ------------------------------------------------------------------
    def real_delay(self, virtual_ms: float) -> float:
        """Real seconds corresponding to *virtual_ms* virtual milliseconds."""
        return (virtual_ms / 1000.0) / self.speedup

    async def sleep(self, virtual_ms: float) -> None:
        """Let *virtual_ms* of virtual time pass."""
        await asyncio.sleep(max(0.0, self.real_delay(virtual_ms)))

    async def sleep_until(self, virtual_time: float) -> None:
        """Sleep until the virtual clock reads at least *virtual_time*."""
        await self.sleep(virtual_time - self.now)
