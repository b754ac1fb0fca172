"""The send rule, and the simulated network that applies it.

:class:`Network` connects protocol endpoints (anything with an
``on_packet(payload)`` method) through a :class:`~repro.net.latency.LatencyModel`
and an optional :class:`~repro.net.loss.LossModel`.  All traffic is
counted in :class:`NetworkStats`, which the experiment harness reads to
report overhead (e.g. RRMP's claim of lower traffic than stability
detection).

A multicast is modelled as an independent delivery per receiver other
than the sender — the standard abstraction for IP multicast over a
dissemination tree, where each receiver observes its own delay and loss
outcome.  What happened to each delivery is kept as counters only, and a
delivery is its payload: no per-receiver envelope is built.

Which receivers a send reaches is decided here, once, for every
transport.  A send classifies its payload once and counts its sends
with one dict update, under ``(payload type, kind)`` in
:attr:`NetworkStats.sends`, of which every other traffic total is a view
built when it is read (sends are counted, not bytes); then each
destination, in order, passes the route check (``send_dropped``) and the
loss draw from the ``("net", "loss")`` stream.  The loss model is
consulted only for the kinds it declares it can drop
(:attr:`~repro.net.loss.LossModel.dropped_kinds`, one set lookup per
send), so a lossless control send makes no call per receiver, and no
draw that a droppable kind makes is skipped.  The survivors' delays come
from one :meth:`~repro.net.latency.LatencyModel.delays` call, taken once
per destination region, and the survivors are grouped by arrival time
(``now + delay``), in destination order.  A transport supplies the two
steps around that rule: where a destination routes
(:meth:`Network._router`, the lookup a send applies to each destination,
asked for once per send) and how arrivals are delivered
(:meth:`Network._deliver` for a unicast, :meth:`Network._deliver_groups`
for a fan-out; both are handed the sender, payload and send time, so a
transport that encodes does so once per send).
:class:`repro.live.transport.LiveTransport` is the subclass whose last
step is a UDP socket.

Here a destination routes to its registered endpoint, and each arrival
instant of a send is handed to :meth:`repro.sim.engine.Simulator.post` as
one ``(payload, destinations)`` item, so everything that arrives at one
instant, from any number of sends, rides one engine event
(:meth:`Network._deliver_batch`) in the order one event per delivery
would have fired it.  Whether a destination is still registered is
checked when its delivery fires, one destination at a time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import (Any, Callable, DefaultDict, Dict, Iterable, List, Optional, Protocol,
                    Sequence, Tuple)

from repro.net.latency import LatencyModel
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import KIND_CONTROL
from repro.net.topology import NodeId
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


class Endpoint(Protocol):
    """Anything that can receive deliveries from the network."""

    def on_packet(self, payload: Any) -> None:
        """Handle a delivered payload."""
        ...


#: What one post carries: a payload and the destinations it reaches at
#: the post's instant, in destination order.
Delivery = Tuple[Any, Sequence[NodeId]]


def _tally(counts: Iterable[Tuple[str, int]]) -> Dict[str, int]:
    """*counts* summed by label, labels in the order first counted."""
    tally: Dict[str, int] = {}
    for label, count in counts:
        tally[label] = tally.get(label, 0) + count
    return tally


#: What one send is counted under: the payload's type and its ``kind``.
SendKey = Tuple[type, str]


@dataclass
class NetworkStats:
    """Aggregate traffic counters maintained by :class:`Network`.

    A send is counted once, in :attr:`sends`, under its :data:`SendKey`;
    ``sent``, ``sent_by_type`` and ``sent_by_kind`` are views over that
    one counter, each built when it is read.
    """

    delivered: int = 0
    dropped: int = 0
    #: Sends addressed to a destination with no registered endpoint
    #: (the node left, crashed, or never existed).  A subset of
    #: ``dropped``, counted separately so a misrouted deployment is
    #: distinguishable from transport loss.
    send_dropped: int = 0
    #: Transmission attempts per :data:`SendKey`.
    sends: DefaultDict[SendKey, int] = field(default_factory=lambda: defaultdict(int))

    @property
    def sent(self) -> int:
        """Transmission attempts."""
        return sum(self.sends.values())

    @property
    def sent_by_type(self) -> Dict[str, int]:
        """Transmission attempts per payload type name."""
        return _tally((cls.__name__, count) for (cls, _), count in self.sends.items())

    @property
    def sent_by_kind(self) -> Dict[str, int]:
        """Transmission attempts per payload kind."""
        return _tally((kind, count) for (_, kind), count in self.sends.items())

    def control_messages(self) -> int:
        """Total control-plane transmissions."""
        return self.sent_by_kind.get("control", 0)

    def data_messages(self) -> int:
        """Total data-plane transmissions."""
        return self.sent_by_kind.get("data", 0)


class Network:
    """Delivers payloads between registered endpoints via the simulator.

    Parameters
    ----------
    sim:
        The event engine that provides time and scheduling (the live
        transport passes its :class:`~repro.live.clock.LiveClock`).
    latency:
        One-way delay model.
    loss:
        Drop model; defaults to :class:`~repro.net.loss.NoLoss` (the
        paper's assumption for requests and repairs).
    streams:
        RNG factory; the network draws from the ``("net", "loss")``
        substream, so loss outcomes never perturb protocol randomness
        (built by its first draw: a lossless run never builds it).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel,
        loss: Optional[LossModel] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.sim = sim
        self.latency = latency
        self.loss = loss if loss is not None else NoLoss()
        self.loss.bind_clock(sim)  # rate-sensitive models need a time source
        if streams is None:  # not ``or``: a factory with no stream yet is falsy
            streams = RandomStreams(0)
        self._loss_rng = streams.lazy("net", "loss")
        self.stats = NetworkStats()
        self._endpoints: Dict[NodeId, Endpoint] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node_id: NodeId, endpoint: Endpoint) -> None:
        """Attach *endpoint* so it receives what is addressed to it."""
        self._endpoints[node_id] = endpoint

    def unregister(self, node_id: NodeId) -> None:
        """Detach a node (deliveries in flight to it are silently dropped)."""
        self._endpoints.pop(node_id, None)

    def is_registered(self, node_id: NodeId) -> bool:
        """Whether *node_id* currently has an attached endpoint."""
        return node_id in self._endpoints

    # ------------------------------------------------------------------
    # Sending: the one rule
    # ------------------------------------------------------------------
    def unicast(self, src: NodeId, dst: NodeId, payload: Any) -> int:
        """Send *payload* from *src* to *dst*.

        Returns the number of deliveries scheduled: 1, or 0 if the loss
        model dropped the packet.  Sending to a destination that does
        not route counts as a send but delivers nothing (the node left
        or crashed).
        """
        # The rule of multicast, straight-line: a repair storm is all unicasts.
        kind = getattr(payload, "kind", KIND_CONTROL)
        stats = self.stats
        stats.sends[type(payload), kind] += 1
        route = self._router()(dst)
        if route is None:
            stats.dropped += 1
            stats.send_dropped += 1
            return 0
        loss = self.loss
        if kind in loss.dropped_kinds and loss.is_lost(src, dst, kind, self._loss_rng):
            stats.dropped += 1
            return 0
        now = self.sim.now
        self._deliver(src, dst, payload, now, now + self.latency.one_way(src, dst), route)
        return 1

    def multicast(
        self,
        src: NodeId,
        dsts: Iterable[NodeId],
        payload: Any,
        group: str = "group",
    ) -> int:
        """Fan *payload* out to every node in *dsts* except *src* itself
        (a host does not loop back its own multicast).

        Returns the number of deliveries scheduled (excluding losses).
        """
        dsts = [dst for dst in dsts if dst != src]
        if not dsts:
            return 0
        kind = getattr(payload, "kind", KIND_CONTROL)
        stats = self.stats
        stats.sends[type(payload), kind] += len(dsts)
        route_of, rng = self._router(), self._loss_rng
        loss = self.loss
        is_lost = loss.is_lost if kind in loss.dropped_kinds else None
        survivors: List[NodeId] = []
        for dst in dsts:
            if route_of(dst) is None:
                # The destination already left or crashed: the send happens
                # (and is accounted) but the packet goes nowhere — checked
                # before the latency model, which cannot place a node the
                # hierarchy no longer contains.  The loss RNG is untouched
                # so surviving traffic keeps its sample path.  Counted under
                # its own counter: a `send_dropped` is a membership fact, not
                # a loss-model outcome, and deployments watch it to catch
                # stale directories.
                stats.dropped += 1
                stats.send_dropped += 1
            elif is_lost is not None and is_lost(src, dst, kind, rng):
                stats.dropped += 1
            else:
                survivors.append(dst)
        if not survivors:
            return 0
        now = self.sim.now
        # Keyed by the sum, not the delay: two delays that round to one
        # instant share one list.
        arrivals: Dict[float, List[NodeId]] = {}
        for dst, delay in zip(survivors, self.latency.delays(src, survivors)):
            arrival = now + delay
            reached = arrivals.get(arrival)
            if reached is None:
                arrivals[arrival] = [dst]
            else:
                reached.append(dst)
        self._deliver_groups(src, payload, now, group, arrivals)
        return len(survivors)

    # ------------------------------------------------------------------
    # What a transport supplies: routing and delivery
    # ------------------------------------------------------------------
    def _router(self) -> Callable[[NodeId], Any]:
        """Where deliveries for a destination go, as one lookup per
        destination — here the registered endpoint, read off the table
        with no frame; ``None`` drops the send (``send_dropped``)."""
        return self._endpoints.get

    def _deliver(self, src: NodeId, dst: NodeId, payload: Any, now: float,
                 arrival: float, route: Any) -> None:
        """Deliver a unicast from *src*, sent at *now*, to *dst* (routed
        to *route*) at *arrival*."""
        self.sim.post(arrival, self._deliver_batch, [(payload, (dst,))])

    def _deliver_groups(self, src: NodeId, payload: Any, now: float, group: str,
                        arrivals: Dict[float, List[NodeId]]) -> None:
        """Deliver a fan-out from *src*, sent at *now* to *group*:
        *arrivals* maps each arrival time, in the order first reached, to
        its destinations in destination order."""
        post, deliver = self.sim.post, self._deliver_batch
        for arrival, dsts in arrivals.items():
            post(arrival, deliver, [(payload, dsts)])

    def _deliver_batch(self, deliveries: List[Delivery]) -> None:
        """Hand every payload of one engine event to each of its
        destinations' endpoints."""
        endpoints, stats = self._endpoints, self.stats
        for payload, dsts in deliveries:
            for dst in dsts:
                endpoint = endpoints.get(dst)
                if endpoint is None:
                    # Destination departed while the payload was in flight.
                    stats.dropped += 1
                    continue
                stats.delivered += 1
                endpoint.on_packet(payload)

    # ------------------------------------------------------------------
    # Timer helpers
    # ------------------------------------------------------------------
    def rtt(self, src: NodeId, dst: NodeId) -> float:
        """Round-trip estimate protocol timers use (paper §2.2)."""
        return self.latency.rtt(src, dst)
