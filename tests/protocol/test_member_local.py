"""Member state-machine tests: local recovery and buffering behaviour."""


from repro.net.latency import ConstantLatency
from repro.net.topology import single_region
from repro.protocol.config import PolicySpec
from repro.protocol.messages import DataMessage, FeedbackReport
from repro.protocol.rrmp import RrmpSimulation


def build(n=10, seed=0, **config_overrides):
    defaults = dict(session_interval=None)
    defaults.update(config_overrides)
    return RrmpSimulation(
        single_region(n),
        config=PolicySpec(**defaults),
        seed=seed,
        latency=ConstantLatency(5.0),
    )


def inject(simulation, holders, seq=1):
    data = DataMessage(seq=seq, sender=simulation.sender.node_id)
    for node in simulation.hierarchy.nodes:
        member = simulation.members[node]
        if node in holders:
            member.inject_receive(data)
        else:
            member.inject_loss_detection(seq)
    return data


class TestUnhandledPayload:
    def test_payload_for_another_role_is_ignored_and_counted(self):
        """Only the sender's CC driver handles a ``FeedbackReport``; any
        other member drops it without disturbing the run."""
        simulation = build(n=4)
        report = FeedbackReport(receiver=2, loss_estimate=0.5, rtt_ms=10.0,
                                max_seq=3, received=1)
        simulation.network.unicast(2, 3, report)
        inject(simulation, holders={0})
        simulation.run(duration=500.0)
        assert simulation.members[3].unhandled_packets == 1
        assert simulation.all_received(1)


class TestLocalRecovery:
    def test_single_holder_spreads_to_all(self):
        simulation = build(n=10)
        inject(simulation, holders={0})
        simulation.run(duration=500.0)
        assert simulation.all_received(1)

    def test_recovery_latency_traced_per_member(self):
        simulation = build(n=10)
        inject(simulation, holders={0})
        simulation.run(duration=500.0)
        assert len(simulation.recovery_latencies()) == 9

    def test_requests_ignored_by_non_holders(self):
        """§2.2: a member without the message ignores the request —
        the requester recovers via its own retry, so everyone still
        converges even though early requests may hit empty members."""
        simulation = build(n=10, seed=3)
        inject(simulation, holders={0})
        simulation.run(duration=500.0)
        stats = simulation.network.stats
        assert stats.sent_by_type["LocalRequest"] > 9  # some retries happened
        assert simulation.all_received(1)

    def test_repairs_are_unicast_to_requester(self):
        simulation = build(n=4)
        inject(simulation, holders={0})
        simulation.run(duration=500.0)
        assert simulation.network.stats.sent_by_type.get("Repair", 0) >= 3

    def test_determinism_same_seed(self):
        def run_once():
            simulation = build(n=20, seed=9)
            inject(simulation, holders={0, 1})
            simulation.run(duration=500.0)
            return sorted(
                (record["node"], record["latency"])
                for record in simulation.trace.of_kind("recovery_completed")
            )

        assert run_once() == run_once()

    def test_different_seeds_differ(self):
        def run_once(seed):
            simulation = build(n=20, seed=seed)
            inject(simulation, holders={0})
            simulation.run(duration=500.0)
            return sorted(
                (record["node"], record["latency"])
                for record in simulation.trace.of_kind("recovery_completed")
            )

        assert run_once(1) != run_once(2)


class TestBufferingIntegration:
    def test_holders_buffer_until_idle(self):
        simulation = build(n=10, c=0.0)
        inject(simulation, holders={0})
        simulation.run(duration=2_000.0)
        assert simulation.buffering_count(1) == 0
        member = simulation.members[0]
        assert member.policy.buffer.records, "holder should have a discard record"

    def test_recovered_members_buffer_too(self):
        """Every member that receives the message buffers it (§3.1)."""
        simulation = build(n=10, c=0.0)
        inject(simulation, holders={0})
        simulation.run(duration=60.0)  # recovery done, idle not everywhere yet
        assert simulation.trace.count("buffer_add") == 10

    def test_long_term_bufferers_remain(self):
        simulation = build(n=10, c=10.0)  # P = 1: everyone keeps
        inject(simulation, holders={0})
        simulation.run(duration=2_000.0)
        assert simulation.buffering_count(1) == 10

    def test_gap_detection_starts_recovery(self):
        simulation = build(n=5)
        data1 = DataMessage(seq=1, sender=simulation.sender.node_id)
        data2 = DataMessage(seq=2, sender=simulation.sender.node_id)
        member = simulation.members[3]
        member.inject_receive(data2)  # gap: seq 1 missing
        assert 1 in member.recoveries
        for node in (0, 1, 2, 4):
            simulation.members[node].inject_receive(data1)
            simulation.members[node].inject_receive(data2)
        simulation.run(duration=500.0)
        assert member.has_received(1)

    def test_duplicates_are_counted_not_redelivered(self):
        simulation = build(n=5)
        data = DataMessage(seq=1, sender=simulation.sender.node_id)
        member = simulation.members[2]
        member.inject_receive(data)
        member.inject_receive(data)
        assert simulation.trace.count("duplicate_received") == 1
        assert simulation.trace.count("member_received") == 1


class TestSessionMessages:
    def test_session_reveals_tail_loss(self):
        simulation = RrmpSimulation(
            single_region(6),
            config=PolicySpec(session_interval=25.0),
            seed=1,
            latency=ConstantLatency(5.0),
        )
        # Sender multicasts one message that reaches nobody (holders
        # only itself): the others must learn about it from sessions.
        from repro.net.ipmulticast import FixedHolders
        simulation.sender.outcome = FixedHolders(set())
        simulation.sender.multicast()
        simulation.run(duration=500.0)
        assert simulation.all_received(1)
        assert simulation.network.stats.sent_by_type.get("SessionMessage", 0) > 0
