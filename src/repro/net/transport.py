"""The simulated network: unicast and multicast delivery with latency/loss.

:class:`Network` connects protocol endpoints (anything with an
``on_packet(packet)`` method) through a :class:`~repro.net.latency.LatencyModel`
and an optional :class:`~repro.net.loss.LossModel`.  All traffic is
counted in :class:`NetworkStats`, which the experiment harness reads to
report overhead (e.g. RRMP's claim of lower traffic than stability
detection).

A multicast is modelled as an independent delivery per receiver other
than the sender — the standard abstraction for IP multicast over a
dissemination tree, where each receiver observes its own delay and loss
outcome.  What happened to each packet is kept as counters only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.net.latency import LatencyModel
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Packet, payload_kind, payload_size, payload_type_name
from repro.net.topology import NodeId
from repro.sim import RandomStreams, Simulator


class Endpoint(Protocol):
    """Anything that can receive packets from the network."""

    def on_packet(self, packet: Packet) -> None:
        """Handle a delivered packet."""
        ...


@dataclass
class NetworkStats:
    """Aggregate traffic counters maintained by :class:`Network`."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    #: Sends addressed to a destination with no registered endpoint
    #: (the node left, crashed, or never existed).  A subset of
    #: ``dropped``, counted separately so a misrouted deployment is
    #: distinguishable from transport loss.
    send_dropped: int = 0
    bytes_sent: int = 0
    sent_by_type: Dict[str, int] = field(default_factory=dict)
    bytes_by_type: Dict[str, int] = field(default_factory=dict)
    sent_by_kind: Dict[str, int] = field(default_factory=dict)

    def record_send(self, type_name: str, kind: str, size: int) -> None:
        """Count one transmission attempt."""
        self.sent += 1
        self.bytes_sent += size
        self.sent_by_type[type_name] = self.sent_by_type.get(type_name, 0) + 1
        self.bytes_by_type[type_name] = self.bytes_by_type.get(type_name, 0) + size
        self.sent_by_kind[kind] = self.sent_by_kind.get(kind, 0) + 1

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
        The event engine that provides time and scheduling.
    latency:
        One-way delay model.
    loss:
        Drop model; defaults to :class:`~repro.net.loss.NoLoss` (the
        paper's assumption for requests and repairs).
    streams:
        RNG factory; the network draws from the ``("net", "loss")``
        substream, so loss outcomes never perturb protocol randomness.
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
        bind_clock = getattr(self.loss, "bind_clock", None)
        if bind_clock is not None:
            bind_clock(sim)  # rate-sensitive models need a time source
        if streams is None:  # not ``or``: a factory with no stream yet is falsy
            streams = RandomStreams(0)
        self._loss_rng = streams.stream("net", "loss")
        self.stats = NetworkStats()
        self._endpoints: Dict[NodeId, Endpoint] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node_id: NodeId, endpoint: Endpoint) -> None:
        """Attach *endpoint* so it can receive packets addressed to it."""
        self._endpoints[node_id] = endpoint

    def unregister(self, node_id: NodeId) -> None:
        """Detach a node (packets in flight to it are silently dropped)."""
        self._endpoints.pop(node_id, None)

    def is_registered(self, node_id: NodeId) -> bool:
        """Whether *node_id* currently has an attached endpoint."""
        return node_id in self._endpoints

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def unicast(self, src: NodeId, dst: NodeId, payload: Any) -> Optional[Packet]:
        """Send *payload* from *src* to *dst*.

        Returns the scheduled :class:`Packet`, or ``None`` if the loss
        model dropped it.  Sending to an unregistered destination counts
        as a send but delivers nothing (the node left or crashed).
        """
        return self._send(src, dst, payload, group=None)

    def multicast(
        self,
        src: NodeId,
        dsts: Iterable[NodeId],
        payload: Any,
        group: str = "group",
    ) -> int:
        """Fan *payload* out to every node in *dsts* except *src* itself
        (a host does not loop back its own multicast).

        Returns the number of deliveries actually scheduled (excluding
        losses).
        """
        scheduled = 0
        # Same-tick batching: consecutive deliveries of one fan-out that
        # share a deliver_time (the common case under constant-latency
        # models) ride a single engine event instead of one heap entry
        # per receiver.  Only *adjacent* equal times are merged, so the
        # relative delivery order is exactly what per-packet events
        # would have produced.
        batch: List[Packet] = []
        batch_time = 0.0
        for dst in dsts:
            if dst == src:
                continue
            packet = self._send(src, dst, payload, group=group, schedule=False)
            if packet is None:
                continue
            scheduled += 1
            if batch and packet.deliver_time != batch_time:
                self._schedule_delivery(batch)
                batch = []
            batch.append(packet)
            batch_time = packet.deliver_time
        if batch:
            self._schedule_delivery(batch)
        return scheduled

    def _schedule_delivery(self, packets: List[Packet]) -> None:
        """Schedule one engine event for a run of same-time packets."""
        if len(packets) == 1:
            packet = packets[0]
            self.sim.at(packet.deliver_time, self._deliver, packet)
        else:
            self.sim.at(packets[0].deliver_time, self._deliver_batch, tuple(packets))

    def _deliver_batch(self, packets: Tuple[Packet, ...]) -> None:
        for packet in packets:
            self._deliver(packet)

    def _send(self, src: NodeId, dst: NodeId, payload: Any, group: Optional[str],
              schedule: bool = True) -> Optional[Packet]:
        kind = payload_kind(payload)
        size = payload_size(payload)
        type_name = payload_type_name(payload)
        self.stats.record_send(type_name, kind, size)
        if dst not in self._endpoints:
            # The destination already left or crashed: the send happens
            # (and is accounted) but the packet goes nowhere — checked
            # before the latency model, which cannot place a node the
            # hierarchy no longer contains.  The loss RNG is untouched
            # so surviving traffic keeps its sample path.  Counted under
            # its own counter: a `send_dropped` is a membership fact, not
            # a loss-model outcome, and deployments watch it to catch
            # stale directories.
            self.stats.dropped += 1
            self.stats.send_dropped += 1
            return None
        if self.loss.is_lost(src, dst, kind, self._loss_rng):
            self.stats.dropped += 1
            return None
        now = self.sim.now
        delay = self.latency.one_way(src, dst)
        packet = Packet(
            src=src,
            dst=dst,
            payload=payload,
            kind=kind,
            send_time=now,
            deliver_time=now + delay,
            multicast_group=group,
        )
        if schedule:
            self.sim.at(packet.deliver_time, self._deliver, packet)
        return packet

    def _deliver(self, packet: Packet) -> None:
        endpoint = self._endpoints.get(packet.dst)
        if endpoint is None:
            # Destination departed while the packet was in flight.
            self.stats.dropped += 1
            return
        self.stats.delivered += 1
        endpoint.on_packet(packet)

    # ------------------------------------------------------------------
    # Timer helpers
    # ------------------------------------------------------------------
    def rtt(self, src: NodeId, dst: NodeId) -> float:
        """Round-trip estimate protocol timers use (paper §2.2)."""
        return self.latency.rtt(src, dst)
