"""The runtime interface: what protocol code may assume about its host.

:class:`~repro.protocol.member.RrmpMember` and friends never talk to an
event loop or a socket directly — they see a *clock* (time and one-shot
scheduling, consumed via :class:`~repro.sim.Timer` and
:class:`~repro.sim.PeriodicTask`) and a *transport* (unicast, multicast,
RTT estimates, membership registration).  These structural protocols
pin that surface down so it can be implemented twice:

* the discrete-event world — :class:`repro.sim.Simulator` +
  :class:`repro.net.transport.Network`;
* the live world — :class:`repro.live.clock.LiveClock` +
  :class:`repro.live.transport.LiveTransport` over asyncio UDP.

The protocols are ``runtime_checkable`` so conformance is testable
(``isinstance(Simulator(), Clock)``), and deliberately *structural*:
the simulator predates this module and must not import it.

Semantics both implementations honour
------------------------------------
* Time is a ``float`` in milliseconds.
* ``after``/``at`` return a cancellable handle; a cancelled handle
  never fires and stops counting as pending.
* ``reserve_seq``/``at_reserved`` support the in-place re-arm of
  :class:`repro.sim.Timer`: a reservation burns one scheduling slot and
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

from typing import Any, Callable, Iterable, Optional, Protocol, runtime_checkable

from repro.net.packet import Packet
from repro.net.topology import NodeId


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

    def reserve_seq(self) -> int:
        """Consume one scheduling sequence number (see module docstring)."""
        ...

    def at_reserved(self, time: float, seq: int, callback: Callable[..., None],
                    *args: Any) -> Handle:
        """Schedule under a sequence number from :meth:`reserve_seq`."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Point-to-point and fan-out delivery between registered endpoints."""

    def register(self, node_id: NodeId, endpoint: Any) -> None:
        """Attach an endpoint (anything with ``on_packet``)."""
        ...

    def unregister(self, node_id: NodeId) -> None:
        """Detach a node; in-flight traffic to it is dropped."""
        ...

    def is_registered(self, node_id: NodeId) -> bool:
        """Whether *node_id* currently has an attached endpoint."""
        ...

    def unicast(self, src: NodeId, dst: NodeId, payload: Any) -> Optional[Packet]:
        """Send *payload* from *src* to *dst*."""
        ...

    def multicast(self, src: NodeId, dsts: Iterable[NodeId], payload: Any,
                  group: str = "group") -> int:
        """Fan *payload* out to every node in *dsts* except *src*."""
        ...

    def rtt(self, src: NodeId, dst: NodeId) -> float:
        """Round-trip estimate protocol timers use."""
        ...
