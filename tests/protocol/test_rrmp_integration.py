"""End-to-end integration tests of the full RRMP stack."""


from repro.core.policies import FixedTimePolicy
from repro.net.ipmulticast import BernoulliOutcome, RegionCorrelatedOutcome
from repro.net.latency import HierarchicalLatency
from repro.net.topology import chain, single_region, star
from repro.protocol.config import PolicySpec
from repro.protocol.rrmp import RrmpSimulation


class TestStreamDelivery:
    def test_lossy_stream_fully_delivered(self):
        simulation = RrmpSimulation(
            single_region(30),
            config=PolicySpec(session_interval=25.0),
            seed=11,
            outcome=BernoulliOutcome(0.2),
        )
        for _ in range(10):
            simulation.sender.multicast()
        simulation.run(duration=3_000.0)
        for seq in range(1, 11):
            assert simulation.all_received(seq), f"message {seq} missing somewhere"

    def test_regional_loss_stream_recovers_over_wan(self):
        hierarchy = chain([8, 8, 8])
        simulation = RrmpSimulation(
            hierarchy,
            config=PolicySpec(session_interval=25.0),
            seed=13,
            latency=HierarchicalLatency(hierarchy, inter_one_way=40.0),
            outcome=RegionCorrelatedOutcome(hierarchy, region_loss=0.4, sender=0),
        )
        for _ in range(5):
            simulation.sender.multicast()
        simulation.run(duration=10_000.0)
        for seq in range(1, 6):
            assert simulation.all_received(seq)

    def test_star_topology_recovers(self):
        hierarchy = star(5, [5, 5, 5])
        simulation = RrmpSimulation(
            hierarchy,
            config=PolicySpec(session_interval=25.0),
            seed=17,
            latency=HierarchicalLatency(hierarchy),
            outcome=RegionCorrelatedOutcome(hierarchy, region_loss=0.5, sender=0),
        )
        for _ in range(3):
            simulation.sender.multicast()
        simulation.run(duration=10_000.0)
        for seq in range(1, 4):
            assert simulation.all_received(seq)


class TestBufferLifecycle:
    def test_expected_long_term_population(self):
        """Across many messages the long-term census per message ≈ C."""
        simulation = RrmpSimulation(
            single_region(50),
            config=PolicySpec(session_interval=25.0, c=5.0),
            seed=19,
        )
        messages = 20
        for _ in range(messages):
            simulation.sender.multicast()
        simulation.run(duration=3_000.0)
        counts = [simulation.buffering_count(seq) for seq in range(1, messages + 1)]
        average = sum(counts) / len(counts)
        assert 3.0 < average < 7.5

    def test_long_term_load_is_spread_across_members(self):
        """Conclusion claim: buffering load is balanced, not hot-spotted."""
        simulation = RrmpSimulation(
            single_region(40),
            config=PolicySpec(session_interval=25.0, c=8.0),
            seed=23,
        )
        for _ in range(30):
            simulation.sender.multicast()
        simulation.run(duration=5_000.0)
        per_node = simulation.occupancy_by_node()
        total = sum(per_node.values())
        assert total > 0
        peak = max(per_node.values())
        # A repair server would hold all 30; spread keeps peaks small.
        assert peak < 30 * 0.6

    def test_ttl_drains_all_buffers_eventually(self):
        simulation = RrmpSimulation(
            single_region(20),
            config=PolicySpec(session_interval=25.0, c=4.0,
                              long_term_ttl=500.0),
            seed=29,
        )
        for _ in range(5):
            simulation.sender.multicast()
        simulation.run(duration=10_000.0)
        assert simulation.buffer_occupancy() == 0


class TestPolicyKindSwap:
    def test_policy_kind_is_used(self):
        simulation = RrmpSimulation(
            single_region(10),
            config=PolicySpec(kind="fixed_time", hold_time=100.0, session_interval=None),
            seed=1,
        )
        assert isinstance(simulation.members[0].policy, FixedTimePolicy)

    def test_default_kind_builds_two_phase(self):
        from repro.core.manager import TwoPhaseBufferPolicy
        simulation = RrmpSimulation(single_region(5))
        assert isinstance(simulation.members[0].policy, TwoPhaseBufferPolicy)


class TestMembershipChanges:
    def test_graceful_leave_hands_off_long_term_buffers(self):
        simulation = RrmpSimulation(
            single_region(10),
            config=PolicySpec(session_interval=None, c=10.0),
            seed=31,
        )
        simulation.sender.multicast()
        simulation.run(duration=100.0)  # everyone long-term-buffers (P=1)
        leaver = simulation.members[5]
        assert leaver.is_buffering(1)
        leaver.leave()
        simulation.run(duration=100.0)
        assert not leaver.alive
        assert simulation.hierarchy.size == 9
        assert simulation.trace.count("handoff_sent") == 1
        # The copy moved somewhere rather than vanishing.
        assert simulation.buffering_count(1) == 9

    def test_crash_loses_buffered_state(self):
        simulation = RrmpSimulation(
            single_region(10),
            config=PolicySpec(session_interval=None, c=10.0),
            seed=31,
        )
        simulation.sender.multicast()
        simulation.run(duration=100.0)
        simulation.members[5].crash()
        simulation.run(duration=100.0)
        assert simulation.trace.count("handoff_sent") == 0
        # The crashed member's copy is simply gone: the nine survivors
        # hold nine copies, where a graceful leave would have moved the
        # tenth copy onto one of them.
        assert simulation.buffering_count(1) == 9
        assert sum(simulation.occupancy_by_node().values()) == 9

    def test_join_mid_session_recovers_history_via_sessions(self):
        simulation = RrmpSimulation(
            single_region(10),
            config=PolicySpec(session_interval=25.0),
            seed=37,
        )
        simulation.sender.multicast()
        simulation.run(duration=100.0)
        newcomer = simulation.add_member(0)
        simulation.run(duration=2_000.0)
        assert newcomer.has_received(1)

    def test_leave_then_messages_still_deliver(self):
        simulation = RrmpSimulation(
            single_region(10),
            config=PolicySpec(session_interval=25.0),
            seed=41,
            outcome=BernoulliOutcome(0.3),
        )
        simulation.sender.multicast()
        simulation.run(duration=200.0)
        simulation.members[7].leave()
        simulation.sender.multicast()
        simulation.run(duration=3_000.0)
        assert simulation.all_received(2)


class TestTrafficAccounting:
    def test_control_and_data_split(self):
        simulation = RrmpSimulation(
            single_region(20),
            config=PolicySpec(session_interval=25.0),
            seed=43,
            outcome=BernoulliOutcome(0.3),
        )
        simulation.sender.multicast()
        simulation.run(duration=2_000.0)
        assert simulation.data_message_count() > 0
        assert simulation.control_message_count() > 0
        stats = simulation.network.stats
        assert stats.sent == stats.control_messages() + stats.data_messages()
