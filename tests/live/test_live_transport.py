"""Tests for the asyncio-UDP live transport."""

from __future__ import annotations

import asyncio
import errno

import pytest

from repro.live.clock import LiveClock
from repro.live.codec import MAGIC, encode_frame
from repro.live.runtime import Transport
from repro.live.transport import LiveTransport
from repro.net.latency import ConstantLatency, HierarchicalLatency
from repro.net.loss import BernoulliLoss
from repro.net.topology import chain
from repro.net.transport import Network
from repro.protocol.messages import DataMessage, HaveReply, LocalRequest
from repro.sim import RandomStreams, Simulator


class Sink:
    """A minimal endpoint that records delivered packets."""

    def __init__(self):
        self.packets = []

    def on_packet(self, packet):
        self.packets.append(packet)


def run(coro):
    return asyncio.run(coro)


async def open_transport(**kwargs):
    clock = LiveClock(speedup=kwargs.pop("speedup", 100.0))
    transport = LiveTransport(clock, ConstantLatency(1.0), **kwargs)
    await transport.open()
    return clock, transport


async def drain(clock, virtual_ms=50.0):
    await clock.sleep(virtual_ms)


class TestProtocolSurface:
    def test_both_transports_satisfy_the_runtime_protocol(self):
        async def main():
            _clock, live = await open_transport()
            assert isinstance(live, Transport)
            live.close()
            sim_net = Network(Simulator(), ConstantLatency(1.0))
            assert isinstance(sim_net, Transport)

        run(main())


    def test_loss_stream_comes_from_the_given_factory_even_when_empty(self):
        streams = RandomStreams(5)  # no stream yet, so falsy: ``or`` would drop it
        LiveTransport(LiveClock(), ConstantLatency(1.0), streams=streams)
        assert streams.names() == [("net", "loss")]


class TestDelivery:
    def test_unicast_round_trip(self):
        async def main():
            clock, transport = await open_transport()
            sink = Sink()
            transport.register(1, sink)
            message = DataMessage(seq=1, sender=0)
            packet = transport.unicast(0, 1, message)
            assert packet is not None
            await drain(clock)
            assert [p.payload for p in sink.packets] == [message]
            assert transport.stats.delivered == 1
            transport.close()

        run(main())

    def test_multicast_fans_out_and_skips_sender(self):
        async def main():
            clock, transport = await open_transport()
            sinks = {n: Sink() for n in range(4)}
            for n, sink in sinks.items():
                transport.register(n, sink)
            message = DataMessage(seq=2, sender=0)
            scheduled = transport.multicast(0, list(sinks), message)
            assert scheduled == 3
            await drain(clock)
            assert sinks[0].packets == []
            for n in (1, 2, 3):
                assert [p.payload for p in sinks[n].packets] == [message]
            transport.close()

        run(main())

    def test_latency_shim_delays_by_virtual_time(self):
        async def main():
            clock = LiveClock(speedup=100.0)
            transport = LiveTransport(clock, ConstantLatency(20.0))
            await transport.open()
            sink = Sink()
            transport.register(1, sink)
            transport.unicast(0, 1, DataMessage(seq=1, sender=0))
            await clock.sleep(5.0)
            assert sink.packets == []  # still in the latency shim
            await clock.sleep(60.0)
            [packet] = sink.packets
            assert packet.deliver_time >= 20.0
            transport.close()

        run(main())

    def test_loss_shim_drops_with_the_seeded_stream(self):
        async def main():
            clock, transport = await open_transport(
                loss=BernoulliLoss(probability=1.0),  # data only
                streams=RandomStreams(7),
            )
            sink = Sink()
            transport.register(1, sink)
            assert transport.unicast(0, 1, DataMessage(seq=1, sender=0)) is None
            packet = transport.unicast(0, 1, LocalRequest(seq=1, requester=0))
            assert packet is not None
            await drain(clock)
            assert [type(p.payload).__name__ for p in sink.packets] \
                == ["LocalRequest"]
            assert transport.stats.dropped == 1
            transport.close()

        run(main())


class TestFanOutBatching:
    """A fan-out arms one clock callback per distinct modelled delay, and
    is otherwise indistinguishable from sending datagram by datagram."""

    def test_constant_latency_fan_out_arms_one_handle(self):
        async def main():
            clock, transport = await open_transport()
            sinks = {n: Sink() for n in range(64)}
            for n, sink in sinks.items():
                transport.register(n, sink)
            message = DataMessage(seq=1, sender=0)
            assert transport.multicast(0, list(sinks), message) == 63
            assert clock.pending_events == 1
            await drain(clock)
            assert clock.events_fired == 1
            assert all(len(sinks[n].packets) == 1 for n in range(1, 64))
            assert transport.stats.sent == transport.stats.delivered == 63
            transport.close()

        run(main())

    def test_two_region_fan_out_arms_two_handles(self):
        async def main():
            hierarchy = chain([4, 4])
            clock = LiveClock()  # real milliseconds: the two delays must not race
            transport = LiveTransport(
                clock, HierarchicalLatency(hierarchy, intra_one_way=1.0,
                                           inter_one_way=60.0))
            await transport.open()
            sinks = {n: Sink() for n in hierarchy.nodes}
            for n, sink in sinks.items():
                transport.register(n, sink)
            # Interleave the regions: grouping is by delay, not adjacency.
            order = [n for pair in zip(hierarchy.regions[0].members, hierarchy.regions[1].members)
                     for n in pair]
            assert transport.multicast(order[0], order, HaveReply(seq=1, owner=0)) == 7
            assert clock.pending_events == 2
            await clock.sleep(20.0)
            near = [n for n, sink in sinks.items() if sink.packets]
            assert sorted(near) == sorted(hierarchy.regions[0].members[1:])
            await clock.sleep(80.0)
            assert sum(len(sink.packets) for sink in sinks.values()) == 7
            assert {p.multicast_group for s in sinks.values() for p in s.packets} == {"group"}
            transport.close()

        run(main())

    def test_fan_out_equals_the_per_datagram_path(self):
        """Same loss draws, stats and receiving sinks as 63 unicasts —
        and as the simulated network on the same seed."""
        async def main():
            message = DataMessage(seq=1, sender=0)
            outcomes = []
            for fan_out in (True, False):
                clock, transport = await open_transport(
                    loss=BernoulliLoss(probability=0.3),
                    streams=RandomStreams(11))
                sinks = {n: Sink() for n in range(64)}
                for n, sink in sinks.items():
                    if n != 40:  # one unregistered destination
                        transport.register(n, sink)
                if fan_out:
                    scheduled = transport.multicast(0, list(sinks), message)
                else:
                    scheduled = sum(
                        transport.unicast(0, n, message) is not None
                        for n in range(1, 64))
                await drain(clock)
                stats = transport.stats
                assert stats.delivered == scheduled == 63 - stats.dropped
                outcomes.append(
                    (stats, [n for n, sink in sinks.items() if sink.packets]))
                transport.close()
            assert outcomes[0] == outcomes[1]
            assert outcomes[0][0].send_dropped == 1  # node 40
            assert 0 < len(outcomes[0][1]) < 62  # the loss model did bite

            sim = Simulator()
            network = Network(sim, ConstantLatency(1.0),
                              loss=BernoulliLoss(probability=0.3),
                              streams=RandomStreams(11))
            sinks = {n: Sink() for n in range(64)}
            for n, sink in sinks.items():
                if n != 40:
                    network.register(n, sink)
            network.multicast(0, list(sinks), message)
            sim.run()
            assert (network.stats,
                    [n for n, sink in sinks.items() if sink.packets]) == outcomes[0]

        run(main())


class FlakySocket:
    """The transport's real socket, failing ``sendto`` on chosen calls."""

    def __init__(self, real, error, failing_calls):
        self._real = real
        self._error = error
        self._failing_calls = failing_calls
        self.calls = 0

    def sendto(self, frame, addr):
        self.calls += 1
        if self.calls in self._failing_calls:
            raise self._error
        return self._real.sendto(frame, addr)

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestSendErrors:
    @pytest.mark.parametrize("error", [
        BlockingIOError(errno.EAGAIN, "send buffer full"),
        OSError(errno.ENETUNREACH, "network is unreachable"),
    ], ids=["buffer-full", "os-error"])
    def test_failed_sendto_costs_one_drop_and_spares_the_batch(self, error):
        async def main():
            clock, transport = await open_transport()
            escaped = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: escaped.append(context))
            sinks = {n: Sink() for n in range(6)}
            for n, sink in sinks.items():
                transport.register(n, sink)
            transport._sock = flaky = FlakySocket(transport._sock, error, {3})
            assert transport.multicast(0, list(sinks), DataMessage(seq=1, sender=0)) == 5
            assert clock.pending_events == 1  # one batch, failing mid-way
            await drain(clock)
            assert flaky.calls == 5
            assert escaped == []
            assert transport.stats.dropped == 1
            assert transport.stats.delivered == 4
            assert [n for n, sink in sinks.items() if sink.packets] == [1, 2, 4, 5]
            transport.close()

        run(main())


class TestSendDropped:
    def test_unregistered_destination_counts_send_dropped(self):
        async def main():
            clock, transport = await open_transport()
            transport.register(0, Sink())
            assert transport.unicast(0, 99, DataMessage(seq=1, sender=0)) is None
            assert transport.stats.send_dropped == 1
            assert transport.stats.dropped == 1
            assert transport.stats.sent == 1
            transport.close()

        run(main())

    def test_directory_mode_requires_local_registration(self):
        """A departed co-located member keeps sim semantics even when
        the directory still lists it."""
        async def main():
            clock, transport = await open_transport(directory={})
            transport.directory = {0: transport.local_address,
                                   1: transport.local_address}
            transport.register(0, Sink())  # 1 is in the directory, not here
            assert transport.unicast(0, 1, DataMessage(seq=1, sender=0)) is None
            assert transport.stats.send_dropped == 1
            transport.close()

        run(main())


class TestInboundRejection:
    def test_malformed_datagrams_are_counted_and_dropped(self):
        async def main():
            clock, transport = await open_transport()
            sink = Sink()
            transport.register(1, sink)
            valid = encode_frame(0, 1, DataMessage(seq=1, sender=0), send_time=0.0)
            for blob in (b"not an rrmp frame",
                         b'RRMP1{"dst":1,"group":null,"msg":{"payload":null,'
                         b'"sender":0,"seq":1,"t":"DataMessage"},"sent":0.0,"src":0}',
                         MAGIC + b"\x01 truncated",
                         valid + b"\x00"):
                transport._sock.sendto(blob, transport.local_address)
            await drain(clock)
            assert transport.recv_rejected == 4
            assert sink.packets == []
            transport.close()

        run(main())

    def test_frame_for_unknown_node_is_dropped(self):
        async def main():
            clock, transport = await open_transport()
            frame = encode_frame(0, 42, DataMessage(seq=1, sender=0),
                                 send_time=0.0)
            transport._sock.sendto(frame, transport.local_address)
            await drain(clock)
            assert transport.recv_unknown == 1
            transport.close()

        run(main())

    def test_unregister_stops_delivery(self):
        async def main():
            clock, transport = await open_transport()
            sink = Sink()
            transport.register(1, sink)
            assert transport.is_registered(1)
            transport.unregister(1)
            assert not transport.is_registered(1)
            assert transport.unicast(0, 1, DataMessage(seq=1, sender=0)) is None
            transport.close()

        run(main())


class TestLifecycle:
    def test_open_twice_raises(self):
        async def main():
            _clock, transport = await open_transport()
            with pytest.raises(RuntimeError):
                await transport.open()
            transport.close()

        run(main())

    def test_close_is_idempotent(self):
        async def main():
            _clock, transport = await open_transport()
            transport.close()
            transport.close()

        run(main())

    def test_burst_survives_the_kernel_buffer(self):
        """A burst far beyond the default socket buffer arrives whole
        (the transport enlarges SO_RCVBUF and drains in batches)."""
        async def main():
            clock, transport = await open_transport()
            sink = Sink()
            transport.register(1, sink)
            for seq in range(1, 1001):
                transport.unicast(0, 1, LocalRequest(seq=seq, requester=0))
            for _ in range(200):
                await drain(clock, 20.0)
                if len(sink.packets) >= 1000:
                    break
            assert len(sink.packets) == 1000
            transport.close()

        run(main())
