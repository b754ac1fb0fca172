"""The live transport: a :class:`~repro.net.transport.Network` whose last
step is a UDP socket.

One :class:`LiveTransport` owns one UDP socket and carries every member
registered with it; frames tag ``src``/``dst`` node ids (see
:mod:`repro.live.codec`), so a whole group can run loopback through a
single socket, or be sharded across processes via a *directory* mapping
node ids to ``(host, port)`` addresses.

Which receivers a send reaches is the simulated network's own rule,
inherited rather than copied: the send is accounted, each destination
is routed (``send_dropped``), loss-drawn from the ``("net", "loss")``
stream and delayed by the latency model, in the same order, so a
:class:`~repro.scenario.spec.ScenarioSpec`'s ``LossSpec`` and
``TopologySpec`` drive a real run unmodified.  The subclass supplies the
two steps around that rule:

* **Route**: a destination goes to this socket's own address when it is
  registered here, or to its directory entry; a departed co-located
  member routes nowhere, as in the simulator.
* **Delivery**: the rule hands over the sender, payload, send time and
  group with each send's destinations grouped by arrival time; the
  message is encoded once per send (only the header differs per
  receiver), and the datagrams of each arrival time ride one
  :class:`~repro.live.clock.LiveClock` callback that writes them after
  the modelled one-way delay (virtual milliseconds), so protocol timers
  see the topology the spec describes rather than bare loopback
  latency.  A zero delay writes at once.

An inbound datagram is handed to its endpoint as the decoded
:class:`~repro.net.packet.Frame` (sender, destination, send time, the
message as ``payload``, group), which a member dispatches on its
``payload`` as it would the simulator's bare payload.  Datagrams that
fail to decode are counted (``recv_rejected``) and rejected whole
(:class:`~repro.live.codec.CodecError` never reaches protocol code).
Like the simulated network, the transport keeps what happened to each
datagram as counters only.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.live.clock import LiveClock
from repro.live.codec import MAX_DATAGRAM, CodecError, decode_frame, encode_frame, frame_encoder
from repro.net.latency import LatencyModel
from repro.net.loss import LossModel
from repro.net.topology import NodeId
from repro.net.transport import Network
from repro.sim.randomness import RandomStreams

Address = Tuple[str, int]

#: Requested socket buffer size.  Frames are a few hundred bytes, so
#: this is headroom for tens of thousands of in-flight datagrams.
SOCKET_BUFFER_BYTES = 4 * 1024 * 1024

#: Datagrams drained per readability callback.  asyncio's own datagram
#: transport reads exactly one per event-loop iteration, which starves
#: the receive path whenever timer callbacks dominate an iteration (a
#: hundred members all firing recovery rounds): repairs then arrive
#: after the 40 ms idle discard and recovery spirals.  Draining a batch
#: keeps receives proportional to load.
READ_BATCH = 512


class LiveTransport(Network):
    """Delivers protocol messages between members over real UDP.

    Parameters are :class:`~repro.net.transport.Network`'s, with the
    live clock in place of the simulator; *directory* optionally maps
    node ids to peer addresses for multi-process deployments.  Without a
    directory every destination is assumed local to this socket
    (loopback mode).
    """

    def __init__(
        self,
        clock: LiveClock,
        latency: LatencyModel,
        loss: Optional[LossModel] = None,
        streams: Optional[RandomStreams] = None,
        directory: Optional[Dict[NodeId, Address]] = None,
    ) -> None:
        super().__init__(clock, latency, loss, streams)
        #: Inbound datagrams rejected by the codec (malformed/foreign).
        self.recv_rejected = 0
        #: Inbound frames addressed to a node not registered here.
        self.recv_unknown = 0
        self.directory = directory
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._local_addr: Optional[Address] = None

    # ------------------------------------------------------------------
    # Socket lifecycle
    # ------------------------------------------------------------------
    async def open(self, host: str = "127.0.0.1", port: int = 0) -> Address:
        """Bind the UDP socket; returns the bound ``(host, port)``."""
        if self._sock is not None:
            raise RuntimeError("transport already open")
        self._loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        # Protocol rounds are bursty — every recovering member fires
        # within the same timer window, and at high clock speedups those
        # bursts land in real microseconds.  The default UDP receive
        # buffer silently sheds such bursts (drops the loss shim never
        # sees), so ask for room for tens of thousands of frames; the
        # kernel clamps to its own maximum.
        for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
            try:
                sock.setsockopt(socket.SOL_SOCKET, option, SOCKET_BUFFER_BYTES)
            except OSError:  # pragma: no cover - platform-dependent
                pass
        sock.bind((host, port))
        self._sock = sock
        self._local_addr = sock.getsockname()[:2]
        self._loop.add_reader(sock.fileno(), self._on_readable)
        return self._local_addr

    def close(self) -> None:
        """Close the socket.  Idempotent."""
        if self._sock is not None:
            if self._loop is not None:
                self._loop.remove_reader(self._sock.fileno())
            self._sock.close()
            self._sock = None

    @property
    def local_address(self) -> Optional[Address]:
        """Bound address, or ``None`` before :meth:`open`."""
        return self._local_addr

    # ------------------------------------------------------------------
    # Sending: the rule is Network's; routing and delivery are the socket's.
    # unicast and multicast stay attributes of this class, so per-class
    # instrumentation (the ledger's span tracer) tells live sends apart.
    # ------------------------------------------------------------------
    def unicast(self, src: NodeId, dst: NodeId, payload: Any) -> int:
        """Send *payload* from *src* to *dst* over UDP (see :meth:`Network.unicast`)."""
        return super().unicast(src, dst, payload)

    def multicast(
        self,
        src: NodeId,
        dsts: Iterable[NodeId],
        payload: Any,
        group: str = "group",
    ) -> int:
        """One datagram per receiver other than *src* (see :meth:`Network.multicast`)."""
        return super().multicast(src, dsts, payload, group)

    def _router(self) -> Callable[[NodeId], Optional[Address]]:
        """Every destination routes through :meth:`_route`."""
        return self._route

    def _route(self, dst: NodeId) -> Optional[Address]:
        """Where datagrams for *dst* go; ``None`` means drop the send."""
        if self.directory is not None:
            addr = self.directory.get(dst)
            if addr is None:
                return None
            # A local destination must also still be registered — a
            # departed co-located member keeps sim semantics.
            if addr == self._local_addr and dst not in self._endpoints:
                return None
            return addr
        if dst not in self._endpoints:
            return None
        assert self._local_addr is not None, "open() the transport before sending"
        return self._local_addr

    def _deliver(self, src: NodeId, dst: NodeId, payload: Any, now: float,
                 arrival: float, route: Address) -> None:
        """Write one datagram once its modelled delay has passed."""
        self._transmit_at(now, arrival, [(encode_frame(src, dst, payload, now), route)])

    def _deliver_groups(self, src: NodeId, payload: Any, now: float, group: str,
                        arrivals: Dict[float, List[NodeId]]) -> None:
        """Encode the message once, and write each arrival time's
        datagrams from one clock callback (at once for a zero delay)."""
        frame, route = frame_encoder(src, payload, now, group), self._route
        for arrival, dsts in arrivals.items():
            self._transmit_at(now, arrival, [(frame(dst), route(dst)) for dst in dsts])

    def _transmit_at(self, now: float, arrival: float,
                     batch: List[Tuple[bytes, Address]]) -> None:
        """Write *batch* at *arrival*: from a clock callback, or at once
        when it is not later than *now*."""
        if arrival > now:
            self.sim.at(arrival, self._transmit, batch)
        else:
            self._transmit(batch)

    def _transmit(self, batch: List[Tuple[bytes, Address]]) -> None:
        """Write the datagrams of one arrival time to the socket."""
        sock = self._sock
        if sock is None:
            return  # closed while the latency shim held the frames
        for frame, addr in batch:
            try:
                sock.sendto(frame, addr)
            except OSError:
                # Kernel send buffer full (BlockingIOError), peer gone,
                # route down: indistinguishable from wire loss at the
                # receiver, so account it like one and keep writing —
                # the rest of the batch is other receivers' traffic.
                self.stats.dropped += 1

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _on_readable(self) -> None:
        """Drain up to :data:`READ_BATCH` datagrams from the socket.

        Registered with ``loop.add_reader``; called once per event-loop
        iteration while the socket has data.
        """
        sock = self._sock
        if sock is None:
            return
        for _ in range(READ_BATCH):
            try:
                data, addr = sock.recvfrom(MAX_DATAGRAM)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:  # pragma: no cover - closing race
                break
            self.datagram_received(data, addr)

    def datagram_received(self, data: bytes, addr: Address) -> None:
        """Decode one inbound datagram and hand its frame to its endpoint."""
        try:
            frame = decode_frame(data)
        except CodecError:
            self.recv_rejected += 1
            return
        endpoint = self._endpoints.get(frame.dst)
        if endpoint is None:
            # Departed while in flight, or a stale directory points a
            # peer at us: mirrors the simulated in-flight drop.
            self.recv_unknown += 1
            self.stats.dropped += 1
            return
        self.stats.delivered += 1
        endpoint.on_packet(frame)
