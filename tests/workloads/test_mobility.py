"""Tests for the waypoint mobility model (repro.workloads.mobility)."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import chain, single_region
from repro.protocol.config import PolicySpec
from repro.protocol.rrmp import RrmpSimulation
from repro.scenario.spec import MobilitySpec
from repro.sim.randomness import derive_seed
from repro.workloads.mobility import (
    DistanceLoss,
    MobilityManager,
    region_anchors,
)


def manager(hierarchy=None, seed=7, **overrides):
    spec = MobilitySpec(kind="waypoint", **overrides)
    return MobilityManager(hierarchy or chain([5, 5, 5]), spec, seed)


class TestAnchors:
    def test_single_region_sits_at_the_center(self):
        anchors = region_anchors(single_region(4), area=1000.0)
        assert anchors == {0: (500.0, 500.0)}

    def test_anchors_deterministic_in_the_hierarchy(self):
        a = region_anchors(chain([5, 5, 5]), area=1000.0)
        b = region_anchors(chain([5, 5, 5]), area=1000.0)
        assert a == b
        assert len(a) == 3

    def test_anchors_are_distinct(self):
        anchors = region_anchors(chain([3, 3, 3, 3]), area=1000.0)
        assert len(set(anchors.values())) == 4


class TestDeterminism:
    """All movement randomness is named-seed derived: trajectories are
    pure functions of (master_seed, node) and nothing else."""

    def test_waypoint_for_is_a_pure_function(self):
        m = manager(seed=42)
        assert m.waypoint_for(3, 5) == m.waypoint_for(3, 5)
        assert manager(seed=42).waypoint_for(3, 5) == m.waypoint_for(3, 5)

    def test_waypoints_match_the_documented_derivation(self):
        m = manager(seed=42)
        rng = random.Random(derive_seed(42, ("mobility", 3, 5)))
        expected = (rng.uniform(0.0, m.spec.area), rng.uniform(0.0, m.spec.area))
        assert m.waypoint_for(3, 5) == expected

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           node=st.integers(min_value=0, max_value=14),
           epoch=st.integers(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_same_seed_same_trajectory(self, seed, node, epoch):
        a = manager(seed=seed)
        b = manager(seed=seed)
        assert a.positions[node] == b.positions[node]
        assert a.waypoint_for(node, epoch) == b.waypoint_for(node, epoch)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           node=st.integers(min_value=0, max_value=14),
           epoch=st.integers(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_waypoints_stay_inside_the_field(self, seed, node, epoch):
        m = manager(seed=seed)
        x, y = m.waypoint_for(node, epoch)
        assert 0.0 <= x <= m.spec.area
        assert 0.0 <= y <= m.spec.area

    def test_start_positions_cluster_near_the_home_anchor(self):
        m = manager(seed=9)
        spread = m.spec.area * 0.08
        for node, pos in m.positions.items():
            anchor = m.anchors[m.hierarchy.region_id_of(node)]
            assert abs(pos[0] - anchor[0]) <= spread + 1e-9
            assert abs(pos[1] - anchor[1]) <= spread + 1e-9


class TestHandoffs:
    def build(self, seed=11):
        simulation = RrmpSimulation(
            chain([6, 6, 6]),
            config=PolicySpec(session_interval=25.0),
            seed=seed,
        )
        m = MobilityManager(
            simulation.hierarchy,
            MobilitySpec(kind="waypoint", speed=6.0, epoch=40.0),
            master_seed=seed,
        )
        return simulation, m

    def test_roaming_members_hand_off_between_regions(self):
        simulation, m = self.build()
        m.attach(simulation, duration=1_500.0)
        simulation.sender.multicast()
        simulation.run(duration=1_500.0)
        assert m.handoff_count > 0
        assert simulation.trace.count("mobility_handoff") == m.handoff_count
        # Every handoff is the §3.2 graceful path: a leave plus a join.
        assert simulation.trace.count("member_left") >= m.handoff_count
        assert simulation.trace.count("member_joined") >= m.handoff_count

    def test_protected_sender_never_hands_off(self):
        simulation, m = self.build()
        sender = simulation.sender.member.node_id
        m.attach(simulation, duration=1_500.0)
        simulation.run(duration=1_500.0)
        assert simulation.members[sender].alive
        for record in simulation.trace.of_kind("mobility_handoff"):
            assert record["node"] != sender

    def test_epochs_are_finite_so_drain_terminates(self):
        simulation, m = self.build()
        m.attach(simulation, duration=400.0)
        simulation.sender.multicast()
        simulation.drain()
        assert m.epoch_count == int(400.0 // m.spec.epoch)


class TestDistanceLoss:
    def test_probability_scales_with_distance(self):
        m = manager(seed=5)
        loss = DistanceLoss(m, max_loss=0.5)
        m.positions[0] = (0.0, 0.0)
        m.positions[1] = (0.0, 0.0)
        m.positions[2] = (m.spec.area * 2, 0.0)  # clamped ratio caps at 1
        assert loss.probability(0, 1) == 0.0
        assert loss.probability(0, 2) == 0.5

    def test_base_model_is_consulted_first(self):
        class AlwaysLose:
            def is_lost(self, src, dst, kind, rng):
                return True

        m = manager(seed=5)
        loss = DistanceLoss(m, max_loss=0.0, base=AlwaysLose())
        assert loss.is_lost(0, 1, "data", random.Random(1))

    def test_control_traffic_unaffected_by_default(self):
        m = manager(seed=5)
        m.positions[0] = (0.0, 0.0)
        m.positions[1] = (m.spec.area, m.spec.area)
        loss = DistanceLoss(m, max_loss=1.0)
        assert not loss.is_lost(0, 1, "control", random.Random(1))
        assert loss.is_lost(0, 1, "data", random.Random(1))
