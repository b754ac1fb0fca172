"""Asyncio-UDP implementation of the runtime :class:`~repro.live.runtime.Transport`.

One :class:`LiveTransport` owns one UDP socket and carries every member
registered with it; frames tag ``src``/``dst`` node ids (see
:mod:`repro.live.codec`), so a whole group can run loopback through a
single socket, or be sharded across processes via a *directory* mapping
node ids to ``(host, port)`` addresses.

The send path deliberately mirrors :class:`repro.net.transport.Network`
step for step — account the send, check membership (``send_dropped``),
consult the loss shim, apply the latency shim, deliver — so a
:class:`~repro.scenario.spec.ScenarioSpec`'s ``LossSpec`` drives a real
run unmodified:

* **Loss shim**: the same :class:`~repro.net.loss.LossModel` objects
  (e.g. :class:`~repro.net.loss.GilbertElliottLoss`) decide drops
  before the datagram is written, drawing from the ``("net", "loss")``
  stream exactly like the simulated network.
* **Latency shim**: the spec's :class:`~repro.net.latency.LatencyModel`
  delays the socket write by the modelled one-way time (in virtual
  milliseconds on the :class:`~repro.live.clock.LiveClock`), so
  protocol timers see the topology the spec describes rather than bare
  loopback latency.  A zero-delay model degenerates to an immediate
  write.

A unicast is a fan-out of one: every send goes through the same
routine, which encodes the message once (only the header differs per
receiver) and hands the clock one callback per distinct modelled delay
rather than one per datagram.

Inbound datagrams that fail to decode are counted (``recv_rejected``)
and rejected whole (:class:`~repro.live.codec.CodecError` never reaches
protocol code).  Like the simulated network, the transport keeps what
happened to each datagram as counters only.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.live.clock import LiveClock
from repro.live.codec import MAX_DATAGRAM, CodecError, decode_frame, frame_encoder
from repro.net.latency import LatencyModel
from repro.net.loss import LossModel, NoLoss
from repro.net.packet import Packet, payload_kind, payload_size, payload_type_name
from repro.net.topology import NodeId
from repro.net.transport import Endpoint, NetworkStats
from repro.sim import RandomStreams

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


class LiveTransport:
    """Delivers protocol messages between members over real UDP.

    Parameters mirror :class:`repro.net.transport.Network` (clock in
    place of the simulator); *directory* optionally maps node ids to
    peer addresses for multi-process deployments.  Without a directory
    every destination is assumed local to this socket (loopback mode).
    """

    def __init__(
        self,
        clock: LiveClock,
        latency: LatencyModel,
        loss: Optional[LossModel] = None,
        streams: Optional[RandomStreams] = None,
        directory: Optional[Dict[NodeId, Address]] = None,
    ) -> None:
        self.clock = clock
        self.latency = latency
        self.loss = loss if loss is not None else NoLoss()
        bind_clock = getattr(self.loss, "bind_clock", None)
        if bind_clock is not None:
            bind_clock(clock)  # rate-sensitive models need a time source
        if streams is None:  # not ``or``: a factory with no stream yet is falsy
            streams = RandomStreams(0)
        self._loss_rng = streams.stream("net", "loss")
        self.stats = NetworkStats()
        #: Inbound datagrams rejected by the codec (malformed/foreign).
        self.recv_rejected = 0
        #: Inbound frames addressed to a node not registered here.
        self.recv_unknown = 0
        self.directory = directory
        self._endpoints: Dict[NodeId, Endpoint] = {}
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
    # Registration (the Transport protocol surface)
    # ------------------------------------------------------------------
    def register(self, node_id: NodeId, endpoint: Endpoint) -> None:
        """Attach *endpoint* so it can receive frames addressed to it."""
        self._endpoints[node_id] = endpoint

    def unregister(self, node_id: NodeId) -> None:
        """Detach a node (frames in flight to it are dropped on arrival)."""
        self._endpoints.pop(node_id, None)

    def is_registered(self, node_id: NodeId) -> bool:
        """Whether *node_id* currently has an attached endpoint."""
        return node_id in self._endpoints

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def unicast(self, src: NodeId, dst: NodeId, payload: Any) -> Optional[Packet]:
        """Send *payload* from *src* to *dst* over UDP: a fan-out of one."""
        now, delays = self._fan_out(src, (dst,), payload, None)
        if not delays:
            return None
        return Packet(src=src, dst=dst, payload=payload, kind=payload_kind(payload),
                      send_time=now, deliver_time=now + delays[0])

    def multicast(
        self,
        src: NodeId,
        dsts: Iterable[NodeId],
        payload: Any,
        group: str = "group",
    ) -> int:
        """Fan *payload* out as one datagram per receiver other than *src*."""
        dsts = [dst for dst in dsts if dst != src]
        return len(self._fan_out(src, dsts, payload, group)[1])

    def rtt(self, src: NodeId, dst: NodeId) -> float:
        """Round-trip estimate from the modelled latency (virtual ms)."""
        return self.latency.rtt(src, dst)

    def _fan_out(self, src: NodeId, dsts: Iterable[NodeId], payload: Any,
                 group: Optional[str]) -> Tuple[float, List[float]]:
        """Send *payload* to every node in *dsts*.

        What the receivers share — classification, send time, the
        encoded message — is computed once; each destination then costs
        its accounting, the loss and latency draws (in *dsts* order,
        like :class:`~repro.net.transport.Network`) and one header.
        Frames are grouped by modelled delay and each group rides one
        clock callback, the live twin of ``Network._deliver_batch``.
        Returns the send time and the delay of every frame scheduled.
        """
        kind = payload_kind(payload)
        size = payload_size(payload)
        type_name = payload_type_name(payload)
        now = self.clock.now
        frame = frame_encoder(src, payload, now, group)
        stats = self.stats
        delays: List[float] = []
        batches: Dict[float, List[Tuple[bytes, Address]]] = {}
        for dst in dsts:
            stats.record_send(type_name, kind, size)
            addr = self._address_of(dst)
            if addr is None:
                # No endpoint here and no directory entry: the destination
                # left, crashed, or was never deployed.  Same observable
                # outcome as the simulated network's membership check.
                stats.dropped += 1
                stats.send_dropped += 1
            elif self.loss.is_lost(src, dst, kind, self._loss_rng):
                stats.dropped += 1
            else:
                delay = self.latency.one_way(src, dst)
                delays.append(delay)
                batches.setdefault(delay, []).append((frame(dst), addr))
        for delay, batch in batches.items():
            if delay > 0:
                self.clock.after(delay, self._transmit, batch)
            else:
                self._transmit(batch)
        return now, delays

    def _address_of(self, dst: NodeId) -> Optional[Address]:
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

    def _transmit(self, batch: List[Tuple[bytes, Address]]) -> None:
        """Write one delay group of a fan-out to the socket."""
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
        """Decode one inbound datagram and hand it to its endpoint."""
        try:
            src, dst, send_time, payload, group = decode_frame(data)
        except CodecError:
            self.recv_rejected += 1
            return
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            # Departed while in flight, or a stale directory points a
            # peer at us: mirrors the simulated in-flight drop.
            self.recv_unknown += 1
            self.stats.dropped += 1
            return
        now = self.clock.now
        self.stats.delivered += 1
        endpoint.on_packet(Packet(src, dst, payload, payload.kind, send_time, now, group))
