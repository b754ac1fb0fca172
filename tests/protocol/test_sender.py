"""Unit tests for the RRMP sender."""


from repro.net.ipmulticast import FixedHolderCount, FixedHolders, PerfectOutcome
from repro.net.latency import ConstantLatency
from repro.net.topology import single_region
from repro.protocol.config import PolicySpec
from repro.protocol.rrmp import RrmpSimulation


def build(n=10, seed=0, outcome=None, session_interval=None):
    return RrmpSimulation(
        single_region(n),
        config=PolicySpec(session_interval=session_interval),
        seed=seed,
        latency=ConstantLatency(5.0),
        outcome=outcome if outcome is not None else PerfectOutcome(),
    )


class TestMulticast:
    def test_sequence_numbers_are_dense_from_one(self):
        simulation = build()
        first = simulation.sender.multicast()
        second = simulation.sender.multicast()
        assert (first.seq, second.seq) == (1, 2)
        assert simulation.sender.max_seq == 2

    def test_sender_always_holds_its_own_message(self):
        simulation = build(outcome=FixedHolders(set()))
        simulation.sender.multicast()
        assert simulation.members[simulation.sender.node_id].has_received(1)

    def test_perfect_outcome_reaches_everyone(self):
        simulation = build()
        simulation.sender.multicast()
        simulation.run(duration=50.0)
        assert simulation.received_count(1) == 10

    def test_fixed_holder_count_outcome(self):
        simulation = build(outcome=FixedHolderCount(3), seed=5)
        simulation.sender.multicast()
        simulation.run(duration=50.0)
        # 3 holders drawn from the group; the sender adds itself if
        # not drawn, so 3 or 4 members hold the message.
        assert simulation.received_count(1) in (3, 4)

    def test_trace_message_sent(self):
        simulation = build()
        simulation.sender.multicast()
        record = simulation.trace.first("message_sent")
        assert record["seq"] == 1
        assert record["group"] == 10


class TestSessionMessages:
    def test_sessions_emitted_periodically(self):
        simulation = build(session_interval=50.0)
        simulation.sender.multicast()
        simulation.run(duration=240.0)
        sessions = simulation.network.stats.sent_by_type.get("SessionMessage", 0)
        # 4 ticks x 9 receivers.
        assert sessions == 36

    def test_no_sessions_before_first_message(self):
        simulation = build(session_interval=50.0)
        simulation.run(duration=500.0)
        assert simulation.network.stats.sent_by_type.get("SessionMessage", 0) == 0

    def test_stop_halts_sessions(self):
        simulation = build(session_interval=50.0)
        simulation.sender.multicast()
        simulation.run(duration=120.0)
        simulation.sender.stop()
        before = simulation.network.stats.sent_by_type.get("SessionMessage", 0)
        simulation.run(duration=500.0)
        after = simulation.network.stats.sent_by_type.get("SessionMessage", 0)
        assert before == after

    def test_drain_stops_sessions_automatically(self):
        simulation = build(session_interval=50.0)
        simulation.sender.multicast()
        final = simulation.drain()
        assert final < float("inf")
