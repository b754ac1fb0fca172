"""Restartable timers and periodic tasks on top of the event engine.

RRMP is timer-heavy: every buffered message keeps an idle timer that is
pushed back each time a request arrives, and the baselines run periodic
gossip.  (A recovery round is re-armed only from its own firing, so it
is a plain event, not a :class:`Timer`.)  :class:`Timer` and :class:`PeriodicTask` capture those two
patterns once so protocol code never manipulates raw events.

A region acts in lockstep: its members buffer a multicast, go idle and
flip their §3.2 coin at the same instants, so their idle clocks share
deadlines.  :class:`Timer` therefore arms through
:meth:`~repro.sim.engine.Simulator.post` with one module-level callback,
:func:`_fire_timers`: the timers armed for one deadline, with no seq
reserved in between, ride one engine event (a :class:`_Batch`) and fire
in arming order, exactly where one event each would have fired them.

Every buffered copy's life runs through here (its idle clock is armed
on receipt and fires into the §3.2 coin), so the copy path is kept
short: :func:`started` builds a timer already armed, in one call, and
:func:`_fire_timers` runs a due timer's callback itself, leaving
:meth:`Timer._fire` only for a pushed-back timer's catch-up.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.events import Event


class _Batch(list):
    """The tokens of the timers riding one engine event, in arming order.

    ``live`` counts the tokens still valid: a timer that is cancelled or
    re-armed elsewhere leaves its token behind, stale, and the batch
    whose last live token goes is cancelled itself, so an instant where
    nothing is left to fire costs no event.
    """

    __slots__ = ("live",)

    def __iadd__(self, later: Any) -> "_Batch":
        # Simulator.post merges a later post for the same instant into
        # this open one with ``+=``: the one token a Timer posts, and its
        # timer, now ride this batch.
        token = later[0]
        token[0]._batch = self
        self.live += 1
        self.append(token)
        return self


def _fire_timers(batch: _Batch) -> None:
    """Fire every timer whose token in *batch* is still its own: a due
    one runs its callback here, a pushed-back one goes to its catch-up."""
    for token in batch:
        timer = token[0]
        if timer._token is token:
            if timer._deadline > timer._sim.now:
                timer._fire()
            else:
                timer._event = timer._batch = timer._token = None
                timer._callback(*timer._args)


class Timer:
    """A one-shot timer that can be (re)started and cancelled.

    Restarting an armed timer replaces the previous deadline, which is
    exactly the semantics of the paper's *idle threshold*: each
    retransmission request pushes the discard deadline back to
    ``now + T``.

    **Arming** posts a fresh *token* (a 1-tuple naming the timer) at the
    deadline; timers armed for the same deadline with no seq reserved in
    between share one engine event, a :class:`_Batch`.  The token is
    per arm: only the timer's current token fires it, so a timer that
    was re-armed for the same deadline fires at its new place in the
    batch, not its old one.

    **Re-arming to a later deadline** — the overwhelmingly common case,
    since every push-back moves the deadline forward — is done *in
    place*: the timer records the new deadline (and reserves the event
    sequence number a reschedule would have consumed, keeping same-time
    tie-breaking bit-identical) and stays where it is.  When its event
    fires early, the timer notices the pushed-back deadline and
    schedules one catch-up event of its own at the true deadline under
    the reserved seq.  A burst of *k* refreshes therefore costs *k*
    field writes plus at most one extra event.

    **Re-arming to an equal-or-earlier deadline, or cancelling**,
    detaches the timer from its event (its token goes stale) and arms
    it afresh; the shared event stays for the other timers on it.  A
    batch left with no live token is cancelled, so
    :attr:`~repro.sim.engine.Simulator.pending_events` and the end of
    :meth:`~repro.sim.engine.Simulator.drain` read as if each timer had its own
    event.

    The timer fires ``callback(*args)``, so a tracker arming one timer
    per message passes its bound method and the seq — no closure each.
    :func:`started` builds one already started, in one call.
    """

    __slots__ = ("_sim", "_callback", "_args", "_event", "_batch", "_token",
                 "_deadline", "_reserved_seq")

    def __init__(self, sim: Simulator, callback: Callable[..., None], *args: Any) -> None:
        self._sim = sim
        self._callback = callback
        self._args = args
        #: The engine event the timer rides (a batch, or its own
        #: catch-up event), or ``None`` while disarmed.
        self._event: Optional[Event] = None
        #: The batch whose ``live`` count includes this timer, if any.
        self._batch: Optional[_Batch] = None
        #: The token in ``_batch`` that fires this timer.
        self._token: Optional[Tuple["Timer"]] = None
        self._deadline = 0.0
        self._reserved_seq = 0

    @property
    def armed(self) -> bool:
        """Whether the timer is currently counting down."""
        return self._event is not None

    @property
    def deadline(self) -> Optional[float]:
        """Absolute firing time if armed, else ``None``."""
        if self.armed:
            return self._deadline
        return None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire *delay* ms from now."""
        sim = self._sim
        deadline = sim.now + delay
        event = self._event
        if event is not None:
            if deadline > event.time:
                # Push-back: keep the scheduled event, just move the
                # logical deadline.  _fire() re-checks before invoking.
                self._deadline = deadline
                self._reserved_seq = sim.reserve_seq()
                return
            self._detach()
        self._deadline = deadline
        self._token = token = (self,)
        self._batch = batch = _Batch((token,))
        batch.live = 1
        # A merge re-points self._batch at the open batch (_Batch.__iadd__).
        self._event = sim.post(deadline, _fire_timers, batch)

    def cancel(self) -> None:
        """Disarm the timer if armed.  Idempotent."""
        if self._event is not None:
            self._detach()
            self._event = None

    def _detach(self) -> None:
        """Leave the current event, cancelling it if nothing else rides it."""
        batch = self._batch
        if batch is None:
            self._event.cancel()  # its own catch-up event
            return
        self._batch = self._token = None
        batch.live -= 1
        if not batch.live:
            self._event.cancel()

    def _fire(self) -> None:
        """A pushed-back timer's catch-up (called from :func:`_fire_timers`,
        and the catch-up event's callback): re-queue or fire."""
        self._batch = self._token = None
        deadline = self._deadline
        if deadline > self._sim.now:
            # The deadline was pushed back after this event was queued:
            # schedule the single catch-up event at the true deadline,
            # under the seq reserved by the most recent push-back so it
            # fires exactly where the rescheduled event would have.
            self._event = self._sim.at_reserved(deadline, self._reserved_seq, self._fire)
            return
        self._event = None
        self._callback(*self._args)


def started(sim: Simulator, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
    """``Timer(sim, callback, *args)`` started for *delay*, in one call
    (each buffered copy arms its idle clock this way): the fields
    ``__init__`` sets, then :meth:`Timer.start`'s fresh arm."""
    timer = Timer.__new__(Timer)
    timer._sim, timer._callback, timer._args = sim, callback, args
    timer._reserved_seq = 0
    timer._deadline = deadline = sim.now + delay
    timer._token = token = (timer,)
    timer._batch = batch = _Batch((token,))
    batch.live = 1
    timer._event = sim.post(deadline, _fire_timers, batch)
    return timer


class PeriodicTask:
    """Invoke a callback every *interval* ms until stopped.

    Used by the stability-detection baseline (history-digest gossip), the
    gossip failure detector (heartbeats) and the metrics occupancy
    probes.  The first invocation happens ``phase`` ms after
    :meth:`start` (default: one full interval).
    """

    __slots__ = ("_sim", "_callback", "interval", "_event")

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[], None]) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self._sim = sim
        self._callback = callback
        self.interval = interval
        #: The next tick's event, or ``None`` while stopped.
        self._event: Optional[Event] = None

    @property
    def running(self) -> bool:
        """Whether the task is currently scheduled."""
        return self._event is not None

    def start(self, phase: Optional[float] = None) -> None:
        """Begin ticking.  *phase* delays the first tick (default: interval)."""
        self.stop()
        first = self.interval if phase is None else phase
        self._event = self._sim.after(first, self._tick)

    def stop(self) -> None:
        """Stop ticking.  Idempotent."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        # Re-arm before invoking the callback so the callback may call
        # stop() to terminate the task; a stopped task's event was
        # cancelled, so it never ticks again.
        self._event = self._sim.after(self.interval, self._tick)
        self._callback()
