"""Event primitives for the discrete-event simulation engine.

An :class:`Event` is a callback scheduled to fire at a simulated time.
Events are totally ordered by ``(time, sequence_number)`` so that two
events scheduled for the same instant fire in the order they were
scheduled, which keeps every simulation run deterministic.

Cancellation is *lazy*: cancelling an event marks it dead but leaves it
in its bucket; the engine discards dead events when it reaches them, or
compacts them away in bulk (:mod:`repro.sim.engine`).  This makes
:meth:`Event.cancel` O(1), which matters because protocol timers are
cancelled far more often than they fire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


class Event:
    """A single scheduled callback.

    Instances are created by the engine (:meth:`repro.sim.engine.Simulator.at` /
    :meth:`repro.sim.engine.Simulator.after`); user code normally only keeps a
    reference in order to :meth:`cancel` it.
    """

    __slots__ = ("time", "seq", "callback", "args", "_cancelled", "_sim")

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
        #: The simulator whose queue holds the event; ``None`` once fired.
        self._sim: Optional["Simulator"] = None

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
        sim = self._sim
        if sim is not None:
            sim._note_dead()

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

