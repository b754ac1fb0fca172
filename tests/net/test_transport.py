"""Unit tests for the network transport."""

from dataclasses import dataclass, field

import pytest

from repro.net.latency import ConstantLatency
from repro.net.loss import ReceiverSetLoss
from repro.net.transport import Network
from repro.sim.randomness import RandomStreams


@dataclass(frozen=True)
class ControlPing:
    note: str = "hi"
    kind: str = field(default="control", repr=False)
    wire_size: int = field(default=64, repr=False)


@dataclass(frozen=True)
class DataBlob:
    kind: str = field(default="data", repr=False)
    wire_size: int = field(default=1024, repr=False)


class Sink:
    def __init__(self):
        self.packets = []

    def on_packet(self, packet):
        self.packets.append(packet)


@pytest.fixture
def network(sim):
    return Network(sim, ConstantLatency(5.0), streams=RandomStreams(1))


class TestUnicast:
    def test_delivery_with_latency(self, sim, network):
        sink = Sink()
        network.register(1, sink)
        network.unicast(0, 1, ControlPing())
        sim.run()
        assert len(sink.packets) == 1
        packet = sink.packets[0]
        assert packet.deliver_time == pytest.approx(5.0)
        assert packet.latency == pytest.approx(5.0)
        assert packet.src == 0 and packet.dst == 1

    def test_unregistered_destination_drops(self, sim, network):
        network.unicast(0, 99, ControlPing())
        sim.run()
        assert network.stats.dropped == 1
        assert network.stats.sent == 1
        # Misrouted sends are counted separately from transport loss.
        assert network.stats.send_dropped == 1

    def test_destination_departing_mid_flight_drops(self, sim, network):
        sink = Sink()
        network.register(1, sink)
        network.unicast(0, 1, ControlPing())
        sim.at(2.0, network.unregister, 1)
        sim.run()
        assert sink.packets == []
        assert network.stats.dropped == 1
        # An in-flight drop is ordinary loss, not a misrouted send.
        assert network.stats.send_dropped == 0

    def test_in_order_delivery_same_pair(self, sim, network):
        sink = Sink()
        network.register(1, sink)
        network.unicast(0, 1, ControlPing("first"))
        network.unicast(0, 1, ControlPing("second"))
        sim.run()
        assert [p.payload.note for p in sink.packets] == ["first", "second"]


class TestMulticast:
    def test_fan_out_excludes_sender(self, sim, network):
        sinks = {i: Sink() for i in range(4)}
        for node, sink in sinks.items():
            network.register(node, sink)
        scheduled = network.multicast(0, [0, 1, 2, 3], ControlPing())
        sim.run()
        assert scheduled == 3
        assert len(sinks[0].packets) == 0
        assert all(len(sinks[i].packets) == 1 for i in (1, 2, 3))

    def test_multicast_group_tag(self, sim, network):
        sink = Sink()
        network.register(1, sink)
        network.multicast(0, [1], ControlPing(), group="region")
        sim.run()
        assert sink.packets[0].multicast_group == "region"


class TestLossIntegration:
    def test_loss_model_drops_selected_receivers(self, sim):
        network = Network(sim, ConstantLatency(5.0),
                          loss=ReceiverSetLoss({2}), streams=RandomStreams(1))
        sinks = {i: Sink() for i in (1, 2)}
        for node, sink in sinks.items():
            network.register(node, sink)
        network.multicast(0, [1, 2], DataBlob())
        sim.run()
        assert len(sinks[1].packets) == 1
        assert len(sinks[2].packets) == 0
        assert network.stats.dropped == 1

    def test_control_survives_data_loss_model(self, sim):
        network = Network(sim, ConstantLatency(5.0),
                          loss=ReceiverSetLoss({1}), streams=RandomStreams(1))
        sink = Sink()
        network.register(1, sink)
        network.unicast(0, 1, ControlPing())
        sim.run()
        assert len(sink.packets) == 1


    def test_loss_stream_comes_from_the_given_factory_even_when_empty(self, sim):
        """Regression: ``streams or RandomStreams(0)`` swapped in seed 0
        for any factory that had not created a stream yet."""
        streams = RandomStreams(5)
        assert len(streams) == 0
        network = Network(sim, ConstantLatency(5.0), streams=streams)
        assert streams.names() == [("net", "loss")]
        assert network._loss_rng is streams.stream("net", "loss")


class TestStats:
    def test_counters_by_type_and_kind(self, sim, network):
        sink = Sink()
        network.register(1, sink)
        network.unicast(0, 1, ControlPing())
        network.unicast(0, 1, DataBlob())
        sim.run()
        stats = network.stats
        assert stats.sent == 2
        assert stats.delivered == 2
        assert stats.sent_by_type == {"ControlPing": 1, "DataBlob": 1}
        assert stats.control_messages() == 1
        assert stats.data_messages() == 1

    def test_rtt_helper(self, network):
        assert network.rtt(0, 1) == pytest.approx(10.0)
