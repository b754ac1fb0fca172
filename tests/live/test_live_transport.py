"""Tests for the asyncio-UDP live transport."""

from __future__ import annotations

import asyncio
import errno
import heapq
import itertools
import select
import time

import pytest

from repro.live.clock import LiveClock
from repro.live.codec import MAGIC, encode_frame
from repro.live.transport import LiveTransport
from repro.net.latency import ConstantLatency, HierarchicalLatency
from repro.net.loss import BernoulliLoss
from repro.net.packet import Frame
from repro.net.topology import chain
from repro.net.transport import Network
from repro.protocol.messages import DataMessage, HaveReply, LocalRequest
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


class Sink:
    """A minimal endpoint that records the decoded frames it receives."""

    def __init__(self):
        self.packets = []

    def on_packet(self, frame):
        self.packets.append(frame)


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
    def test_the_live_transport_is_a_network(self):
        assert issubclass(LiveTransport, Network)

    def test_loss_stream_comes_from_the_given_factory_even_when_empty(self):
        streams = RandomStreams(5)  # no stream yet, so falsy: ``or`` would drop it
        transport = LiveTransport(LiveClock(), ConstantLatency(1.0),
                                  loss=BernoulliLoss(probability=1.0), streams=streams,
                                  directory={1: ("127.0.0.1", 9)})
        assert streams.names() == []  # built by its first draw
        assert transport.unicast(0, 1, DataMessage(seq=1, sender=0)) == 0
        assert streams.names() == [("net", "loss")]

    def test_a_received_datagram_reaches_its_endpoint_as_the_decoded_frame(self):
        class HeldClock:
            now = 7.25

        transport = LiveTransport(HeldClock(), ConstantLatency(1.0))
        sink = Sink()
        transport.register(5, sink)
        message = DataMessage(seq=3, sender=4)
        transport.datagram_received(encode_frame(4, 5, message, send_time=2.0, group="group"),
                                    ("127.0.0.1", 9))
        assert sink.packets == [Frame(src=4, dst=5, send_time=2.0, payload=message,
                                      group="group")]
        assert transport.stats.delivered == 1


class TestDelivery:
    def test_unicast_round_trip(self):
        async def main():
            clock, transport = await open_transport()
            sink = Sink()
            transport.register(1, sink)
            message = DataMessage(seq=1, sender=0)
            assert transport.unicast(0, 1, message) == 1
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
            arrivals = []
            transport.register(1, LoggingSink(arrivals, 1, clock))
            transport.unicast(0, 1, DataMessage(seq=1, sender=0))
            await clock.sleep(5.0)
            assert arrivals == []  # still in the latency shim
            await clock.sleep(60.0)
            [(_, _, arrival)] = arrivals
            assert arrival >= 20.0
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
            assert transport.unicast(0, 1, DataMessage(seq=1, sender=0)) == 0
            assert transport.unicast(0, 1, LocalRequest(seq=1, requester=0)) == 1
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
            assert {p.group for s in sinks.values() for p in s.packets} == {"group"}
            transport.close()

        run(main())

    def test_a_multicast_group_reaches_the_wire(self):
        async def main():
            clock, transport = await open_transport()
            sinks = {n: Sink() for n in range(3)}
            for n, sink in sinks.items():
                transport.register(n, sink)
            message = DataMessage(seq=1, sender=0)
            assert transport.multicast(0, list(sinks), message, group="region") == 2
            assert transport.unicast(0, 1, message) == 1
            await drain(clock)
            assert [(p.src, p.group) for p in sinks[1].packets] == [(0, "region"), (0, None)]
            assert [p.group for p in sinks[2].packets] == ["region"]
            transport.close()

        run(main())

    @pytest.mark.parametrize("latency", [
        ConstantLatency(1.0),
        HierarchicalLatency(chain([32, 32]), intra_one_way=1.0, inter_one_way=60.0),
    ], ids=["one-arrival-time", "two-arrival-times"])
    def test_fan_out_equals_the_per_datagram_path(self, latency):
        """Same loss draws, stats and arrivals — each in order, at its
        time — as 63 unicasts per message, and as the simulated network
        on the same seed."""
        messages = [DataMessage(seq=1, sender=0), DataMessage(seq=2, sender=0)]

        def send(transport, fan_out):
            for message in messages:
                if fan_out:
                    yield transport.multicast(0, range(64), message)
                else:
                    yield from (transport.unicast(0, n, message) for n in range(1, 64))

        def outcome(transport, scheduled, log, groups, fan_out):
            stats = transport.stats
            assert stats.delivered == scheduled == 126 - stats.dropped
            if isinstance(transport, LiveTransport):
                assert groups == {"group" if fan_out else None}
            return stats, log

        def attach(transport, clock):
            log, groups = [], set()  # (dst, seq, arrival time), as they arrive
            for n in range(64):
                if n != 40:  # one unregistered destination
                    transport.register(n, LoggingSink(log, n, clock, groups))
            return log, groups

        async def live(fan_out):
            clock = ManualClock()
            transport = LiveTransport(clock, latency, loss=BernoulliLoss(probability=0.3),
                                      streams=RandomStreams(11))
            await transport.open()
            log, groups = attach(transport, clock)
            scheduled = sum(send(transport, fan_out))
            clock.run(transport)
            transport.close()
            return outcome(transport, scheduled, log, groups, fan_out)

        def sim(fan_out):
            engine = Simulator()
            network = Network(engine, latency, loss=BernoulliLoss(probability=0.3),
                              streams=RandomStreams(11))
            log, groups = attach(network, engine)
            scheduled = sum(send(network, fan_out))
            engine.run()
            return outcome(network, scheduled, log, groups, fan_out)

        outcomes = [run(live(True)), run(live(False)), sim(True), sim(False)]
        assert all(other == outcomes[0] for other in outcomes[1:])
        stats, arrivals = outcomes[0]
        assert stats.send_dropped == 2  # node 40, once per message
        assert 0 < len(arrivals) < 124  # the loss model did bite
        times = [arrival[-1] for arrival in arrivals]
        assert times == sorted(times)
        if isinstance(latency, HierarchicalLatency):
            assert len(set(times)) == 2


class LoggingSink:
    """An endpoint that appends ``(node, seq, clock.now)`` to a shared log
    for what it receives: the payload itself from the simulated network,
    a decoded frame (whose group joins *groups*) from the live one."""

    def __init__(self, log, node, clock, groups=None):
        self.log, self.node, self.clock, self.groups = log, node, clock, groups

    def on_packet(self, delivery):
        if isinstance(delivery, Frame):
            assert delivery.dst == self.node
            if self.groups is not None:
                self.groups.add(delivery.group)
            delivery = delivery.payload
        self.log.append((self.node, delivery.seq, self.clock.now))


class ManualClock:
    """A live-transport clock that stands still until :meth:`run` fires
    its callbacks in time order, so arrivals carry exact modelled times."""

    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._seq = itertools.count()

    def at(self, when, callback, *args):
        heapq.heappush(self._queue, (when, next(self._seq), callback, args))

    def run(self, transport):
        """Fire every socket write in time order, reading its datagrams
        back before the next."""
        written = 0
        while self._queue:
            self.now, _, write, (batch,) = heapq.heappop(self._queue)
            write(batch)
            written += len(batch)
            receive(transport, written)


def receive(transport, expected):
    """Drain the socket until *expected* datagrams have been handled."""
    deadline = time.monotonic() + 5.0
    while transport.stats.delivered + transport.recv_unknown < expected:
        assert time.monotonic() < deadline, "datagrams lost on loopback"
        select.select([transport._sock], [], [], 0.1)
        transport._on_readable()


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
            assert transport.unicast(0, 99, DataMessage(seq=1, sender=0)) == 0
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
            assert transport.unicast(0, 1, DataMessage(seq=1, sender=0)) == 0
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
            assert transport.unicast(0, 1, DataMessage(seq=1, sender=0)) == 0
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
