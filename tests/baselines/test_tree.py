"""Tests for the tree-based repair-server baseline (ref [12])."""


from repro.net.ipmulticast import BernoulliOutcome, FixedHolders
from repro.net.latency import HierarchicalLatency
from repro.net.topology import chain
from repro.protocol.config import PolicySpec
from repro.tree.rmtp import TreeSimulation


def build(sizes=(5, 5), seed=0, outcome=None, session_interval=25.0):
    hierarchy = chain(list(sizes))
    return TreeSimulation(
        hierarchy,
        seed=seed,
        latency=HierarchicalLatency(hierarchy, inter_one_way=40.0),
        outcome=outcome,
        config=PolicySpec(session_interval=session_interval),
    )


class TestServerDesignation:
    def test_one_server_per_region(self):
        simulation = build(sizes=(4, 4, 4))
        servers = [m for m in simulation.members.values() if m.is_server]
        assert len(servers) == 3

    def test_root_server_is_sender(self):
        simulation = build()
        assert simulation.servers[0] == simulation.sender_node
        assert simulation.members[simulation.sender_node].is_server

    def test_receivers_point_at_their_region_server(self):
        simulation = build(sizes=(4, 4))
        child_server = simulation.servers[1]
        for node in simulation.hierarchy.regions[1].members:
            member = simulation.members[node]
            if node != child_server:
                assert member.repair_target == child_server

    def test_child_server_points_upstream(self):
        simulation = build(sizes=(4, 4))
        child_server = simulation.members[simulation.servers[1]]
        assert child_server.repair_target == simulation.servers[0]

    def test_root_server_has_no_upstream(self):
        simulation = build()
        assert simulation.members[simulation.sender_node].repair_target is None


class TestRecovery:
    def test_local_loss_repaired_by_region_server(self):
        simulation = build(seed=1, outcome=BernoulliOutcome(0.4))
        simulation.multicast()
        simulation.sim.run_for(2_000.0)
        assert simulation.all_received(1)

    def test_regional_loss_repaired_through_upstream_server(self):
        # Whole child region misses the message.
        simulation = build(seed=2)
        holders = set(simulation.hierarchy.regions[0].members)
        simulation.outcome = FixedHolders(holders)
        simulation.multicast()
        simulation.sim.run_for(5_000.0)
        assert simulation.all_received(1)

    def test_recovery_latency_traced(self):
        simulation = build(seed=3, outcome=BernoulliOutcome(0.5))
        simulation.multicast()
        simulation.sim.run_for(2_000.0)
        latencies = simulation.recovery_latencies()
        assert latencies and all(latency > 0 for latency in latencies)

    def test_stream_delivery(self):
        simulation = build(sizes=(6, 6), seed=4, outcome=BernoulliOutcome(0.2))
        for index in range(5):
            simulation.sim.at(index * 20.0, simulation.multicast)
        simulation.sim.run_for(5_000.0)
        for seq in range(1, 6):
            assert simulation.all_received(seq)


class TestBufferConcentration:
    def test_only_servers_buffer(self):
        """The defining RMTP behaviour: receivers buffer nothing."""
        simulation = build(sizes=(5, 5), seed=5)
        for _ in range(4):
            simulation.multicast()
        simulation.sim.run_for(2_000.0)
        for member in simulation.members.values():
            if member.is_server:
                assert member.buffered_count == 4
            else:
                assert member.buffered_count == 0

    def test_occupancy_hotspot(self):
        simulation = build(sizes=(10, 10), seed=6)
        for _ in range(8):
            simulation.multicast()
        simulation.sim.run_for(2_000.0)
        per_node = simulation.occupancy_by_node()
        values = sorted(per_node.values(), reverse=True)
        # Two servers hold everything; everyone else zero.
        assert values[0] == values[1] == 8
        assert all(v == 0 for v in values[2:])

    def test_server_buffers_grow_without_bound(self):
        """§1: 'the amount of buffering could become impractically large'."""
        simulation = build(sizes=(4, 4), seed=7)
        for index in range(30):
            simulation.sim.at(index * 10.0, simulation.multicast)
        simulation.sim.run_for(2_000.0)
        server = simulation.members[simulation.servers[1]]
        assert server.buffered_count == 30
