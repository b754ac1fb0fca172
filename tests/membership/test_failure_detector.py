"""Tests for the gossip-style failure detector (ref [13])."""

import pytest

from repro.membership.failure_detector import attach_failure_detectors
from repro.net.latency import ConstantLatency
from repro.net.topology import single_region
from repro.protocol.config import PolicySpec
from repro.protocol.rrmp import RrmpSimulation


def build(n=8, seed=0, gossip_interval=20.0, suspect_timeout=120.0):
    simulation = RrmpSimulation(
        single_region(n),
        config=PolicySpec(session_interval=None),
        seed=seed,
        latency=ConstantLatency(5.0),
    )
    detectors = attach_failure_detectors(
        list(simulation.members.values()),
        gossip_interval=gossip_interval,
        suspect_timeout=suspect_timeout,
    )
    return simulation, detectors


class TestHealthyGroup:
    def test_no_suspicions_in_steady_state(self):
        simulation, detectors = build()
        simulation.run(duration=2_000.0)
        for detector in detectors:
            assert detector.suspected == set()

    def test_heartbeats_propagate(self):
        simulation, detectors = build()
        simulation.run(duration=2_000.0)
        for detector in detectors:
            # Everyone eventually learns about everyone.
            assert len(detector.heartbeats) == 8

    def test_alive_view_contains_group(self):
        simulation, detectors = build()
        simulation.run(duration=2_000.0)
        assert set(detectors[0].alive_view()) == set(range(8))


class TestCrashDetection:
    def test_crashed_member_is_suspected_by_survivors(self):
        simulation, detectors = build(seed=3)
        simulation.run(duration=500.0)
        victim = simulation.members[3]
        victim.crash()
        simulation.run(duration=2_000.0)
        for detector in detectors:
            if detector.member.node_id != 3 and detector.member.alive:
                assert detector.is_suspected(3)

    def test_suspicion_latency_bounded_by_timeout(self):
        simulation, detectors = build(seed=4, suspect_timeout=100.0)
        simulation.run(duration=500.0)
        simulation.members[2].crash()
        crash_time = simulation.sim.now
        simulation.run(duration=2_000.0)
        suspicions = [record.time for record
                      in simulation.trace.of_kind("fd_suspected")
                      if record["peer"] == 2]
        assert suspicions
        # Detected within timeout + a few gossip rounds of slack.
        assert min(suspicions) - crash_time < 100.0 + 200.0

    def test_on_suspect_callback_runs_once_per_peer(self):
        simulation = RrmpSimulation(
            single_region(6),
            config=PolicySpec(session_interval=None),
            seed=5,
            latency=ConstantLatency(5.0),
        )
        from repro.membership.failure_detector import GossipFailureDetector
        hits = []
        _detectors = [
            GossipFailureDetector(
                member, peers_provider=member.region_member_ids,
                gossip_interval=20.0, suspect_timeout=100.0,
                on_suspect=lambda node, me=member.node_id: hits.append((me, node)),
            )
            for member in simulation.members.values()
        ]
        simulation.run(duration=300.0)
        simulation.members[1].crash()
        simulation.run(duration=3_000.0)
        per_detector = [hit for hit in hits if hit[1] == 1]
        assert len(per_detector) == len(set(per_detector))

    def test_suspicion_converges_despite_gossip_flaps(self):
        """Gossip propagation can briefly rehabilitate a suspect (a
        fresher counter was still in flight); the end state must still
        be unanimous suspicion once those counters drain."""
        simulation, detectors = build(seed=6)
        simulation.run(duration=500.0)
        simulation.members[4].crash()
        simulation.run(duration=5_000.0)
        for detector in detectors:
            if detector.member.alive:
                assert detector.is_suspected(4)


class TestConfiguration:
    def test_timeout_must_exceed_interval(self):
        simulation = RrmpSimulation(
            single_region(3), config=PolicySpec(session_interval=None), seed=1,
        )
        from repro.membership.failure_detector import GossipFailureDetector
        member = simulation.members[0]
        with pytest.raises(ValueError):
            GossipFailureDetector(member, peers_provider=member.region_member_ids,
                                  gossip_interval=50.0, suspect_timeout=40.0)

    def test_detector_stops_with_member(self):
        simulation, detectors = build(seed=7)
        simulation.run(duration=200.0)
        before = simulation.network.stats.sent_by_type.get("HeartbeatGossip", 0)
        for detector in detectors:
            detector.stop()
        simulation.run(duration=1_000.0)
        after = simulation.network.stats.sent_by_type.get("HeartbeatGossip", 0)
        assert before == after
