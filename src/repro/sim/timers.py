"""Restartable timers and periodic tasks on top of the event engine.

RRMP is timer-heavy: every in-flight recovery keeps a per-round
retransmission timer, every buffered message keeps an idle timer that is
pushed back each time a request arrives, and the baselines run periodic
gossip.  :class:`Timer` and :class:`PeriodicTask` capture those two
patterns once so protocol code never manipulates raw events.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event


class Timer:
    """A one-shot timer that can be (re)started and cancelled.

    Restarting an armed timer replaces the previous deadline, which is
    exactly the semantics of the paper's *idle threshold*: each
    retransmission request pushes the discard deadline back to
    ``now + T``.

    Re-arming to a **later** deadline — the overwhelmingly common case,
    since every push-back moves the deadline forward — is done *in
    place*: the timer records the new deadline (and reserves the event
    sequence number a reschedule would have consumed, keeping same-time
    tie-breaking bit-identical) and leaves its scheduled event where it
    is.  When the stale event fires early, the timer notices the
    pushed-back deadline and schedules one catch-up event at the true
    deadline under the reserved seq.  A burst of *k* refreshes
    therefore costs *k* field writes plus at most one extra event,
    instead of *k* cancelled :class:`Event` allocations sitting in the
    engine's queue.  Re-arming to an equal-or-earlier deadline falls
    back to cancel + reschedule (the queued event would fire too late,
    or in the wrong same-time order, otherwise).

    The timer fires ``callback(*args)``, so a tracker arming one timer
    per message passes its bound method and the seq — no closure each.
    """

    __slots__ = ("_sim", "_callback", "_args", "_event", "_deadline", "_reserved_seq")

    def __init__(self, sim: Simulator, callback: Callable[..., None], *args: Any) -> None:
        self._sim = sim
        self._callback = callback
        self._args = args
        self._event: Optional[Event] = None
        self._deadline = 0.0
        self._reserved_seq = 0

    @property
    def armed(self) -> bool:
        """Whether the timer is currently counting down."""
        return self._event is not None and self._event.pending

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
        if event is not None and event.pending:
            if deadline > event.time:
                # Push-back: keep the scheduled event, just move the
                # logical deadline.  _fire() re-checks before invoking.
                self._deadline = deadline
                self._reserved_seq = sim.reserve_seq()
                return
            event.cancel()
        self._deadline = deadline
        new_event = sim.at(deadline, self._fire)
        self._event = new_event
        self._reserved_seq = new_event.seq

    def cancel(self) -> None:
        """Disarm the timer if armed.  Idempotent."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
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


class PeriodicTask:
    """Invoke a callback every *interval* ms until stopped.

    Used by the stability-detection baseline (history-digest gossip), the
    gossip failure detector (heartbeats) and the metrics occupancy
    probes.  The first invocation happens ``phase`` ms after
    :meth:`start` (default: one full interval).
    """

    __slots__ = ("_sim", "_callback", "interval", "_event", "_stopped")

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[], None]) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self._sim = sim
        self._callback = callback
        self.interval = interval
        self._event: Optional[Event] = None
        self._stopped = True

    @property
    def running(self) -> bool:
        """Whether the task is currently scheduled."""
        return not self._stopped

    def start(self, phase: Optional[float] = None) -> None:
        """Begin ticking.  *phase* delays the first tick (default: interval)."""
        self.stop()
        self._stopped = False
        first = self.interval if phase is None else phase
        self._event = self._sim.after(first, self._tick)

    def stop(self) -> None:
        """Stop ticking.  Idempotent."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if self._stopped:
            return
        # Re-arm before invoking the callback so the callback may call
        # stop() to terminate the task.
        self._event = self._sim.after(self.interval, self._tick)
        self._callback()
