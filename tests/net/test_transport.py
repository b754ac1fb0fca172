"""Unit tests for the network transport."""

from dataclasses import dataclass, field

import pytest

from repro.net.latency import ConstantLatency, HierarchicalLatency
from repro.net.loss import BernoulliLoss, ReceiverSetLoss
from repro.net.topology import chain
from repro.net.transport import Network
from repro.sim.engine import Simulator
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

    def on_packet(self, payload):
        self.packets.append(payload)


class ClockedSink:
    """Records ``(sim.now, payload)`` for every delivery."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def on_packet(self, payload):
        self.arrivals.append((self.sim.now, payload))


@pytest.fixture
def network(sim):
    return Network(sim, ConstantLatency(5.0), streams=RandomStreams(1))


class TestUnicast:
    def test_delivery_is_the_payload_at_send_time_plus_one_way(self, sim, network):
        sink = ClockedSink(sim)
        network.register(1, sink)
        ping = ControlPing()
        sim.at(2.5, network.unicast, 0, 1, ping)
        sim.run()
        [(arrival, payload)] = sink.arrivals
        assert payload is ping
        assert arrival == 2.5 + network.latency.one_way(0, 1) == 7.5

    def test_a_payload_without_a_kind_is_sent_as_control(self, sim):
        # Data-only loss: a kind-less payload is control, so never drawn.
        network = Network(sim, ConstantLatency(5.0), loss=BernoulliLoss(probability=1.0),
                          streams=RandomStreams(1))
        sink = Sink()
        network.register(1, sink)
        assert network.unicast(0, 1, "body") == 1
        sim.run()
        assert sink.packets == ["body"]
        assert network.stats.sent_by_kind == {"control": 1}

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
        assert [p.note for p in sink.packets] == ["first", "second"]


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

    def test_each_receiver_sees_the_payload_at_send_time_plus_its_one_way(self):
        hierarchy = chain([3, 3])
        sim = Simulator()
        network = Network(sim, HierarchicalLatency(hierarchy, intra_one_way=2.0,
                                                   inter_one_way=40.0))
        sinks = {node: ClockedSink(sim) for node in hierarchy.nodes}
        for node, sink in sinks.items():
            network.register(node, sink)
        ping = ControlPing()
        sim.at(3.0, network.multicast, 0, hierarchy.nodes, ping, "region")
        sim.run()
        assert sinks[0].arrivals == []
        for node in hierarchy.nodes[1:]:
            [(arrival, payload)] = sinks[node].arrivals
            assert payload is ping
            assert arrival == 3.0 + network.latency.one_way(0, node)


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
        network = Network(sim, ConstantLatency(5.0), loss=BernoulliLoss(probability=0.5),
                          streams=streams)
        assert len(streams) == 0  # built by its first draw
        network.register(1, Sink())
        network.unicast(0, 1, DataBlob())
        assert streams.names() == [("net", "loss")]


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
