"""Tests for the stability-detection baseline (ref [8])."""


from repro.net.ipmulticast import BernoulliOutcome
from repro.net.latency import ConstantLatency
from repro.net.topology import single_region
from repro.protocol.config import PolicySpec
from repro.protocol.rrmp import RrmpSimulation
from repro.stability.detector import attach_stability
from repro.stability.digest import WatermarkTable


class TestWatermarkTable:
    def test_update_keeps_maximum(self):
        table = WatermarkTable()
        assert table.update(1, 5)
        assert not table.update(1, 3)  # stale information ignored
        assert table.get(1) == 5

    def test_merge_reports_advancement(self):
        table = WatermarkTable()
        table.update(1, 5)
        assert table.merge([(1, 4), (2, 7)])      # node 2 is new
        assert not table.merge([(1, 5), (2, 7)])  # nothing new

    def test_frontier_is_group_minimum(self):
        table = WatermarkTable()
        table.update(1, 5)
        table.update(2, 3)
        table.update(3, 9)
        assert table.stability_frontier([1, 2, 3]) == 3

    def test_unknown_member_pins_frontier_at_zero(self):
        """Without full membership info nothing can be declared stable —
        the §1 critique of stability protocols, enforced conservatively."""
        table = WatermarkTable()
        table.update(1, 5)
        assert table.stability_frontier([1, 2]) == 0

    def test_empty_group_frontier(self):
        assert WatermarkTable().stability_frontier([]) == 0

    def test_as_pairs_sorted(self):
        table = WatermarkTable()
        table.update(3, 1)
        table.update(1, 2)
        assert table.as_pairs() == ((1, 2), (3, 1))


def build_stability_sim(n=10, seed=0, loss=0.0, gossip_interval=20.0):
    simulation = RrmpSimulation(
        single_region(n),
        config=PolicySpec(kind="stability", session_interval=25.0),
        seed=seed,
        latency=ConstantLatency(5.0),
        outcome=BernoulliOutcome(loss),
    )
    agents = attach_stability(list(simulation.members.values()),
                              gossip_interval=gossip_interval)
    return simulation, agents


class TestStabilityProtocol:
    def test_nothing_discarded_before_stability(self):
        simulation, _agents = build_stability_sim(n=10)
        simulation.sender.multicast()
        simulation.run(duration=10.0)  # before any gossip round
        assert simulation.buffering_count(1) == 10

    def test_stable_message_discarded_everywhere(self):
        simulation, agents = build_stability_sim(n=10)
        simulation.sender.multicast()
        simulation.run(duration=3_000.0)
        assert simulation.all_received(1)
        assert simulation.buffering_count(1) == 0
        for agent in agents:
            assert agent.stable_frontier >= 1

    def test_discard_reason_is_stable(self):
        simulation, _agents = build_stability_sim(n=6)
        simulation.sender.multicast()
        simulation.run(duration=3_000.0)
        reasons = {record["reason"]
                   for record in simulation.trace.of_kind("buffer_discard")}
        assert reasons == {"stable"}

    def test_slow_member_gates_global_stability(self):
        """A member that misses the message delays everyone's discard."""
        from repro.net.ipmulticast import FixedHolders
        simulation = RrmpSimulation(
            single_region(6),
            config=PolicySpec(kind="stability", session_interval=None),  # loss never detected
            seed=3,
            latency=ConstantLatency(5.0),
            outcome=FixedHolders({0, 1, 2, 3, 4}),  # node 5 misses seq 1
        )
        attach_stability(list(simulation.members.values()))
        simulation.sender.multicast()
        simulation.run(duration=3_000.0)
        # Node 5 never learns of the message, so its watermark stays 0
        # and nobody may discard: the safety property under the cost
        # the paper criticises.
        assert simulation.buffering_count(1) == 5

    def test_stability_generates_control_traffic(self):
        simulation, _agents = build_stability_sim(n=10)
        simulation.sender.multicast()
        simulation.run(duration=1_000.0)
        digests = simulation.network.stats.sent_by_type.get("WatermarkDigest", 0)
        assert digests > 50  # periodic cost even with zero loss

    def test_stability_with_real_loss_still_converges(self):
        simulation, _agents = build_stability_sim(n=12, seed=5, loss=0.25)
        for _ in range(4):
            simulation.sender.multicast()
        simulation.run(duration=5_000.0)
        for seq in range(1, 5):
            assert simulation.all_received(seq)
        assert simulation.buffer_occupancy() == 0

    def test_agents_stop_cleanly(self):
        simulation, agents = build_stability_sim(n=5)
        simulation.sender.multicast()
        simulation.run(duration=100.0)
        for agent in agents:
            agent.stop()
        simulation.run(duration=100.0)
        # No gossip events regenerate after stop.
        digests_before = simulation.network.stats.sent_by_type.get("WatermarkDigest", 0)
        simulation.run(duration=500.0)
        digests_after = simulation.network.stats.sent_by_type.get("WatermarkDigest", 0)
        assert digests_before == digests_after
