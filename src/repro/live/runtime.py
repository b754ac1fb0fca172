"""The runtime interface: what protocol code may assume about its clock.

:class:`~repro.protocol.member.RrmpMember` and friends never talk to an
event loop or a socket directly — they see a *clock* (time and one-shot
scheduling, consumed via :class:`~repro.sim.timers.Timer` and
:class:`~repro.sim.timers.PeriodicTask`) and a *transport*.  The clock is
implemented twice, so these structural protocols pin its surface down:

* the discrete-event world — :class:`repro.sim.engine.Simulator`;
* the live world — :class:`repro.live.clock.LiveClock`.

The transport is implemented once: :class:`repro.net.transport.Network`
states the send rule, and :class:`repro.live.transport.LiveTransport`
is the subclass that delivers over asyncio UDP.

The protocols are ``runtime_checkable`` so conformance is testable
(``isinstance(Simulator(), Clock)``), and deliberately *structural*:
the simulator predates this module and must not import it.

Semantics both implementations honour
------------------------------------
* Time is a ``float`` in milliseconds.
* ``after``/``at`` return a cancellable handle; a cancelled handle
  never fires and stops counting as pending.
* ``post(time, callback, items)`` schedules ``callback(items)`` and
  returns the handle the items ride; :class:`repro.sim.timers.Timer` arms
  through it.  The simulator merges same-instant posts into one event;
  the live clock gives every post its own handle.
* ``reserve_seq``/``at_reserved`` support the in-place re-arm of
  :class:`repro.sim.timers.Timer`: a reservation burns one scheduling slot and
  ``at_reserved`` schedules under it.  The simulator uses the sequence
  for same-time tie-breaking; real time has no simultaneous events, so
  the live clock only preserves the call contract.
* ``pending_events == 0`` means quiescence — the invariant oracle's
  end-of-run liveness sweeps key on it.

One divergence is inherent: ``Simulator.at`` raises on times in the
past, while a wall clock cannot help having moved on since the caller
computed its deadline — :class:`~repro.live.clock.LiveClock` clamps
past times to "now" instead.  Protocol code only ever schedules ahead
of ``now``, so the clamp is a tolerance, not a behaviour change.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class Handle(Protocol):
    """A scheduled callback that can be cancelled before it fires."""

    time: float
    seq: int

    @property
    def pending(self) -> bool:
        """Whether the callback is still waiting to fire."""
        ...

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        ...


@runtime_checkable
class Clock(Protocol):
    """Time plus one-shot scheduling, in milliseconds."""

    @property
    def now(self) -> float:
        """Current time in milliseconds."""
        ...

    @property
    def pending_events(self) -> int:
        """Number of live (not fired, not cancelled) scheduled callbacks."""
        ...

    @property
    def events_fired(self) -> int:
        """Total callbacks executed so far."""
        ...

    def after(self, delay: float, callback: Callable[..., None], *args: Any) -> Handle:
        """Schedule *callback(*args)* *delay* ms from now."""
        ...

    def at(self, time: float, callback: Callable[..., None], *args: Any) -> Handle:
        """Schedule *callback(*args)* at absolute *time*."""
        ...

    def post(self, time: float, callback: Callable[[list], None], items: list) -> Handle:
        """Schedule ``callback(items)`` at *time* (see module docstring)."""
        ...

    def reserve_seq(self) -> int:
        """Consume one scheduling sequence number (see module docstring)."""
        ...

    def at_reserved(self, time: float, seq: int, callback: Callable[..., None],
                    *args: Any) -> Handle:
        """Schedule under a sequence number from :meth:`reserve_seq`."""
        ...

