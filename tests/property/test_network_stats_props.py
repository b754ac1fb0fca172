"""Every ``NetworkStats`` view equals the per-send counters it replaced.

A send is counted once, under ``(payload type, kind)``; ``sent``,
``sent_by_type`` and ``sent_by_kind`` are read off that one counter (the
five counters of old also summed bytes; no program read them, and the
byte views are gone).  Generated programs mix unicasts and multicasts
(to registered, unregistered and lossy destinations) of payloads with
default, non-default and missing ``kind``/``wire_size``, and after every
send each view must equal what the old per-send accounting below adds
up, in the same first-send order, on the simulated network and on the
live UDP transport, which inherits the send rule.
"""

import asyncio
from dataclasses import dataclass, field

from hypothesis import given
from hypothesis import strategies as st

from repro.live.transport import LiveTransport
from repro.net.latency import ConstantLatency
from repro.net.loss import BernoulliLoss
from repro.net.transport import Network
from repro.protocol.messages import DataMessage, HaveReply, LocalRequest, SearchRequest
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


class SendCounters:
    """The accounting ``NetworkStats.record_sends`` kept, one send at a time."""

    def __init__(self):
        self.sent = 0
        self.sent_by_type, self.sent_by_kind = {}, {}

    def record(self, payload, count):
        type_name = type(payload).__name__
        kind = getattr(payload, "kind", "control")
        self.sent += count
        self.sent_by_type[type_name] = self.sent_by_type.get(type_name, 0) + count
        self.sent_by_kind[kind] = self.sent_by_kind.get(kind, 0) + count

    def matches(self, stats):
        views = ("sent", "sent_by_type", "sent_by_kind")
        for view in views:
            mine, theirs = getattr(self, view), getattr(stats, view)
            assert theirs == mine, view
            if isinstance(mine, dict):
                assert list(theirs) == list(mine), f"{view} order"


class Bare:
    """A payload with neither ``kind`` nor ``wire_size``."""


@dataclass(frozen=True)
class KindOnly:
    kind: str = field(default="data", repr=False)


#: Payloads the wire codec carries (``kind``/``wire_size`` stay off the
#: wire, so non-default ones encode too).
WIRE_PAYLOADS = (
    LocalRequest(seq=1, requester=0),
    LocalRequest(seq=2, requester=0, kind="data", wire_size=7),
    DataMessage(seq=3, sender=0),
    DataMessage(seq=4, sender=0, wire_size=4000),
    HaveReply(seq=5, owner=0),
    SearchRequest(seq=6, waiters=(1, 2), forwarder=0, kind="control", wire_size=65),
)
SIM_PAYLOADS = WIRE_PAYLOADS + (Bare(), KindOnly())

NODES = 8  # 0 .. 6 registered, 7 never


def sends(payloads):
    unicast = st.tuples(st.just("unicast"), st.integers(0, NODES - 1),
                        st.integers(0, NODES - 1), st.sampled_from(payloads))
    multicast = st.tuples(st.just("multicast"), st.integers(0, NODES - 1),
                          st.lists(st.integers(0, NODES - 1), max_size=NODES),
                          st.sampled_from(payloads))
    return st.lists(st.one_of(unicast, multicast), max_size=30)


class Sink:
    def on_packet(self, packet):
        pass


def replay(network, program):
    for node in range(NODES - 1):
        network.register(node, Sink())
    expected = SendCounters()
    for op, src, dst, payload in program:
        if op == "unicast":
            network.unicast(src, dst, payload)
            expected.record(payload, 1)
        else:
            network.multicast(src, dst, payload)
            receivers = sum(1 for node in dst if node != src)
            if receivers:  # a multicast to nobody else is no send
                expected.record(payload, receivers)
        expected.matches(network.stats)


@given(program=sends(SIM_PAYLOADS), seed=st.integers(0, 2**32))
def test_simulated_network_views_equal_the_five_counters(program, seed):
    network = Network(Simulator(), ConstantLatency(1.0), loss=BernoulliLoss(0.3),
                      streams=RandomStreams(seed))
    replay(network, program)


class StillClock:
    """A live clock that never fires: sends are counted synchronously."""

    now = 0.0

    def at(self, when, callback, *args):
        pass


@given(program=sends(WIRE_PAYLOADS), seed=st.integers(0, 2**32))
def test_live_transport_views_equal_the_five_counters(program, seed):
    async def main():
        transport = LiveTransport(StillClock(), ConstantLatency(1.0), loss=BernoulliLoss(0.3),
                                  streams=RandomStreams(seed))
        await transport.open()
        try:
            replay(transport, program)
        finally:
            transport.close()

    asyncio.run(main())
