"""A delivery is its payload, exactly where and when a per-packet
envelope would have put it.

The network once built one seven-field packet per receiver of every
send, grouped those packets by arrival time and walked them one by one
at delivery.  It now posts one ``(payload, destinations)`` item per
arrival instant and hands each endpoint the payload itself.  The
reference transports below are that per-packet algorithm, kept here as
the model: generated programs mix unicasts and multicasts of data
(lossy) and control payloads, under lossless and lossy models, with
equal, distinct and near-equal delays (two delays that differ but round
to the same arrival instant), while nodes leave before a send or while
its payload is in flight and come back.

* On the simulated network, the ``(sim.now, node, payload)`` sequence the
  endpoints see and the delivery counters must equal the model's.
* On an open live transport, the ``(frame, address)`` batches written,
  each with its write time, must equal the ones the per-packet
  ``_deliver_groups`` built, in loopback and in directory mode.
"""

import asyncio
from typing import Any, NamedTuple, Optional

from hypothesis import given
from hypothesis import strategies as st

from repro.live.codec import frame_encoder
from repro.live.transport import LiveTransport
from repro.net.latency import LatencyModel
from repro.net.loss import BernoulliLoss, NoLoss
from repro.net.transport import Network
from repro.protocol.messages import DataMessage, LocalRequest
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams

NODES = 8  # 0 .. 6 registered at the start, 7 never
TIMES = (0.0, 1.0, 2.5)
#: 0.5 and the next double above it arrive together when sent at 1.0
#: (1.0 + 0.5000000000000001 rounds to 1.5) but apart when sent at 0.0.
DELAYS = (0.0, 0.5, 0.5000000000000001, 3.0)


class Packet(NamedTuple):
    """The envelope the network built per receiver."""

    src: int
    dst: int
    payload: Any
    kind: str
    send_time: float
    deliver_time: float
    multicast_group: Optional[str] = None


class TableLatency(LatencyModel):
    """Each destination's one-way delay, whatever the source."""

    def __init__(self, delays):
        self.table = delays

    def one_way(self, src, dst):
        return self.table[dst]


class PerPacketSends:
    """The send rule as it was: one :class:`Packet` per surviving receiver."""

    def unicast(self, src, dst, payload):
        kind = getattr(payload, "kind", "control")
        stats = self.stats
        stats.sends[type(payload), kind] += 1
        route = self._router()(dst)
        if route is None:
            stats.dropped += 1
            stats.send_dropped += 1
            return 0
        if kind in self.loss.dropped_kinds and self.loss.is_lost(src, dst, kind,
                                                                 self._loss_rng):
            stats.dropped += 1
            return 0
        now = self.sim.now
        self._deliver_packet(
            Packet(src, dst, payload, kind, now, now + self.latency.one_way(src, dst)), route)
        return 1

    def multicast(self, src, dsts, payload, group="group"):
        dsts = [dst for dst in dsts if dst != src]
        if not dsts:
            return 0
        kind = getattr(payload, "kind", "control")
        stats = self.stats
        stats.sends[type(payload), kind] += len(dsts)
        lossy = kind in self.loss.dropped_kinds
        survivors, routes = [], {}
        for dst in dsts:
            route = self._router()(dst)
            if route is None:
                stats.dropped += 1
                stats.send_dropped += 1
            elif lossy and self.loss.is_lost(src, dst, kind, self._loss_rng):
                stats.dropped += 1
            else:
                survivors.append(dst)
                routes[dst] = route
        if not survivors:
            return 0
        now = self.sim.now
        arrivals = {}
        for dst, delay in zip(survivors, self.latency.delays(src, survivors)):
            packet = Packet(src, dst, payload, kind, now, now + delay, group)
            arrivals.setdefault(packet.deliver_time, []).append(packet)
        self._deliver_packets(arrivals, routes)
        return len(survivors)


class ReferenceNetwork(PerPacketSends, Network):
    def _deliver_packet(self, packet, route):
        self.sim.post(packet.deliver_time, self._deliver_packet_batch, [packet])

    def _deliver_packets(self, arrivals, routes):
        for deliver_time, packets in arrivals.items():
            self.sim.post(deliver_time, self._deliver_packet_batch, packets)

    def _deliver_packet_batch(self, packets):
        for packet in packets:
            endpoint = self._endpoints.get(packet.dst)
            if endpoint is None:
                self.stats.dropped += 1
                continue
            self.stats.delivered += 1
            endpoint.on_packet(packet.payload)


class Sink:
    def __init__(self, node, sim, log):
        self.node, self.sim, self.log = node, sim, log

    def on_packet(self, payload):
        self.log.append((self.sim.now, self.node, payload))


node = st.integers(0, NODES - 1)
payload_seq = st.integers(1, 3)
payloads = st.one_of(
    st.builds(DataMessage, seq=payload_seq, sender=node),  # data: the loss model may drop it
    st.builds(LocalRequest, seq=payload_seq, requester=node),  # control: never drawn
)
actions = st.one_of(
    st.tuples(st.just("unicast"), node, node, payloads),
    st.tuples(st.just("multicast"), node,
              st.one_of(st.lists(node, max_size=NODES), st.permutations(range(NODES))),
              payloads),
    st.tuples(st.just("unregister"), node),
    st.tuples(st.just("register"), node),
)
programs = st.lists(st.tuples(st.sampled_from(TIMES), actions), max_size=25)
delay_tables = st.lists(st.sampled_from(DELAYS), min_size=NODES, max_size=NODES)
losses = st.sampled_from([None, 0.3, 1.0])


def loss_model(probability):
    return NoLoss() if probability is None else BernoulliLoss(probability=probability)


def act(network, sinks, action):
    op, *args = action
    if op == "unicast":
        network.unicast(*args)
    elif op == "multicast":
        network.multicast(*args)
    elif op == "unregister":
        network.unregister(args[0])
    elif args[0] in sinks:
        network.register(args[0], sinks[args[0]])


def simulate(network_class, program, delays, loss, seed):
    sim = Simulator()
    network = network_class(sim, TableLatency(delays), loss=loss_model(loss),
                            streams=RandomStreams(seed))
    log = []
    sinks = {n: Sink(n, sim, log) for n in range(NODES - 1)}
    for n, sink in sinks.items():
        network.register(n, sink)
    for time, action in program:
        sim.at(time, act, network, sinks, action)
    sim.run()
    stats = network.stats
    return log, (stats.delivered, stats.dropped, stats.send_dropped, dict(stats.sends))


@given(program=programs, delays=delay_tables, loss=losses, seed=st.integers(0, 2**32))
def test_endpoints_see_what_per_packet_delivery_handed_them(program, delays, loss, seed):
    log, counts = simulate(Network, program, delays, loss, seed)
    expected_log, expected_counts = simulate(ReferenceNetwork, program, delays, loss, seed)
    assert log == expected_log
    assert counts == expected_counts


# ----------------------------------------------------------------------
# The live transport: what is written, and when
# ----------------------------------------------------------------------
class HeldClock:
    """A live clock that never fires: scheduled writes are recorded."""

    def __init__(self, written):
        self.now = 0.0
        self.written = written

    def at(self, when, callback, *args):
        self.written.append((when, *args))


class RecordingTransport(LiveTransport):
    """Writes nothing: a write is recorded with its time."""

    def _transmit(self, batch):
        self.sim.written.append((self.sim.now, batch))


class ReferenceLiveTransport(PerPacketSends, RecordingTransport):
    """The per-packet ``_deliver``/``_deliver_groups`` as they were."""

    def _deliver_packet(self, packet, route):
        self._deliver_packets({packet.deliver_time: [packet]}, {packet.dst: route})

    def _deliver_packets(self, arrivals, routes):
        first = next(iter(arrivals.values()))[0]
        now = first.send_time
        frame = frame_encoder(first.src, first.payload, now, first.multicast_group)
        for deliver_time, packets in arrivals.items():
            batch = [(frame(packet.dst), routes[packet.dst]) for packet in packets]
            if deliver_time > now:
                self.sim.at(deliver_time, self._transmit, batch)
            else:
                self._transmit(batch)


async def written_by(transport_class, program, delays, loss, seed, directory):
    written = []
    transport = transport_class(HeldClock(written), TableLatency(delays),
                                loss=loss_model(loss), streams=RandomStreams(seed))
    local = await transport.open()
    try:
        local_nodes = range(NODES // 2) if directory else range(NODES - 1)
        if directory:  # 0 .. 3 here, 4 .. 6 at other addresses, 7 nowhere
            transport.directory = {n: local if n in local_nodes else ("127.0.0.1", 9000 + n)
                                   for n in range(NODES - 1)}
        sinks = {n: object() for n in local_nodes}  # nothing is received
        for n, sink in sinks.items():
            transport.register(n, sink)
        for time, action in sorted(program, key=lambda step: step[0]):
            transport.sim.now = time
            act(transport, sinks, action)
        stats = transport.stats
        # Each run binds its own port: name it, so two runs compare.
        writes = [(time, [(frame, "local" if address == local else address)
                          for frame, address in batch]) for time, batch in written]
        return writes, (stats.dropped, stats.send_dropped, dict(stats.sends))
    finally:
        transport.close()


@given(program=programs, delays=delay_tables, loss=losses, seed=st.integers(0, 2**32),
       directory=st.booleans())
def test_live_writes_the_batches_per_packet_delivery_built(program, delays, loss, seed,
                                                           directory):
    def run(transport_class):
        return asyncio.run(written_by(transport_class, program, delays, loss, seed, directory))

    assert run(RecordingTransport) == run(ReferenceLiveTransport)
