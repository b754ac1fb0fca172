"""The :class:`Packet` contract both transports build against.

``Network.unicast``/``Network.multicast`` (the send rule both
transports share) and ``LiveTransport.datagram_received`` construct a
packet positionally, so the field order is part of the contract: these
tests read every field back by name from packets both paths built.
"""

import pytest

from repro.live.codec import encode_frame
from repro.live.transport import LiveTransport
from repro.net.latency import ConstantLatency
from repro.net.packet import KIND_DATA, Packet
from repro.net.transport import Network
from repro.protocol.messages import DataMessage
from repro.sim.engine import Simulator

FIELDS = ("src", "dst", "payload", "kind", "send_time", "deliver_time", "multicast_group")


class Sink:
    def __init__(self):
        self.packets = []

    def on_packet(self, packet):
        self.packets.append(packet)


class HeldClock:
    """Just the ``now`` a receiving transport stamps as deliver time."""

    now = 7.25


def test_field_order_and_default():
    assert Packet._fields == FIELDS
    packet = Packet(1, 2, "body", KIND_DATA, 1.0, 6.0)
    assert packet.multicast_group is None
    assert packet == Packet(src=1, dst=2, payload="body", kind=KIND_DATA,
                            send_time=1.0, deliver_time=6.0)


@pytest.mark.parametrize("name", FIELDS)
def test_assigning_a_field_raises(name):
    packet = Packet(1, 2, "body", KIND_DATA, 1.0, 6.0, "group")
    with pytest.raises(AttributeError):
        setattr(packet, name, None)


def test_latency_is_deliver_minus_send():
    assert Packet(1, 2, None, KIND_DATA, 2.5, 42.5).latency == 40.0


def test_live_receive_fills_every_field_by_name():
    transport = LiveTransport(HeldClock(), ConstantLatency(1.0))
    sink = Sink()
    transport.register(5, sink)
    message = DataMessage(seq=3, sender=4)
    transport.datagram_received(encode_frame(4, 5, message, send_time=2.0, group="group"),
                                ("127.0.0.1", 9))
    [packet] = sink.packets
    assert (packet.src, packet.dst, packet.payload, packet.kind) == (4, 5, message, KIND_DATA)
    assert (packet.send_time, packet.deliver_time) == (2.0, 7.25)
    assert packet.multicast_group == "group"
    assert packet.latency == 5.25


def test_sim_send_fills_every_field_by_name():
    sim = Simulator()
    network = Network(sim, ConstantLatency(5.0))
    sink = Sink()
    network.register(2, sink)
    message = DataMessage(seq=1, sender=1)
    sim.at(3.0, network.multicast, 1, [1, 2], message, "g")
    sim.run()
    [packet] = sink.packets
    assert packet == Packet(1, 2, message, KIND_DATA, 3.0, 8.0, "g")
    assert packet.latency == 5.0
