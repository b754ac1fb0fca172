"""Tests for churn schedules and membership dynamics."""

import random

import pytest

from repro.membership.churn import (
    EVENT_CRASH,
    EVENT_JOIN,
    EVENT_LEAVE,
    ChurnEvent,
    ChurnSchedule,
    random_churn,
)
from repro.net.ipmulticast import BernoulliOutcome
from repro.net.topology import single_region
from repro.protocol.config import PolicySpec
from repro.protocol.rrmp import RrmpSimulation


def build(n=12, seed=0):
    return RrmpSimulation(
        single_region(n),
        config=PolicySpec(session_interval=25.0),
        seed=seed,
        outcome=BernoulliOutcome(0.1),
    )


class TestChurnEvent:
    def test_leave_requires_node(self):
        with pytest.raises(ValueError):
            ChurnEvent(time=1.0, action=EVENT_LEAVE)

    def test_join_requires_region(self):
        with pytest.raises(ValueError):
            ChurnEvent(time=1.0, action=EVENT_JOIN)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            ChurnEvent(time=1.0, action="explode", node=1)


class TestScriptedChurn:
    def test_leave_event_fires_at_time(self):
        simulation = build()
        schedule = ChurnSchedule(simulation, [
            ChurnEvent(time=100.0, action=EVENT_LEAVE, node=5),
        ])
        simulation.run(duration=200.0)
        assert not simulation.members[5].alive
        assert len(schedule.applied) == 1
        assert simulation.trace.count("member_left") == 1

    def test_crash_event(self):
        simulation = build()
        ChurnSchedule(simulation, [
            ChurnEvent(time=50.0, action=EVENT_CRASH, node=3),
        ])
        simulation.run(duration=100.0)
        assert simulation.trace.count("member_crashed") == 1

    def test_join_event_adds_member(self):
        simulation = build(n=5)
        ChurnSchedule(simulation, [
            ChurnEvent(time=50.0, action=EVENT_JOIN, region=0),
        ])
        simulation.run(duration=100.0)
        assert simulation.hierarchy.size == 6
        assert simulation.trace.count("member_joined") == 1

    def test_double_leave_is_tolerated(self):
        simulation = build()
        ChurnSchedule(simulation, [
            ChurnEvent(time=50.0, action=EVENT_LEAVE, node=5),
            ChurnEvent(time=60.0, action=EVENT_LEAVE, node=5),
        ])
        simulation.run(duration=100.0)
        assert simulation.trace.count("member_left") == 1

    def test_events_applied_in_time_order(self):
        simulation = build()
        schedule = ChurnSchedule(simulation, [
            ChurnEvent(time=80.0, action=EVENT_LEAVE, node=2),
            ChurnEvent(time=40.0, action=EVENT_LEAVE, node=3),
        ])
        simulation.run(duration=200.0)
        assert [event.node for event in schedule.applied] == [3, 2]


class TestDuplicateGuard:
    """Regression: scheduling the same event twice used to silently
    double the churn (two timers firing the same leave)."""

    def test_same_event_twice_in_one_list_rejected(self):
        simulation = build()
        event = ChurnEvent(time=50.0, action=EVENT_LEAVE, node=5)
        with pytest.raises(ValueError, match="duplicate churn event"):
            ChurnSchedule(simulation, [event, event])

    def test_second_schedule_with_same_event_rejected(self):
        simulation = build()
        ChurnSchedule(simulation, [
            ChurnEvent(time=50.0, action=EVENT_LEAVE, node=5),
        ])
        with pytest.raises(ValueError, match="duplicate churn event"):
            ChurnSchedule(simulation, [
                ChurnEvent(time=50.0, action=EVENT_LEAVE, node=5),
            ])

    def test_distinct_events_coexist(self):
        simulation = build()
        ChurnSchedule(simulation, [
            ChurnEvent(time=50.0, action=EVENT_LEAVE, node=5),
        ])
        ChurnSchedule(simulation, [
            ChurnEvent(time=60.0, action=EVENT_LEAVE, node=6),
        ])
        simulation.run(duration=100.0)
        assert simulation.trace.count("member_left") == 2


class TestRandomChurn:
    def test_protected_nodes_survive(self):
        simulation = build(n=10, seed=2)
        sender = simulation.sender.node_id
        random_churn(simulation, random.Random(1), duration=2_000.0,
                     leave_rate=0.005, protect=[sender])
        simulation.sender.multicast()
        simulation.run(duration=2_500.0)
        assert simulation.members[sender].alive

    def test_delivery_survives_moderate_churn(self):
        simulation = build(n=15, seed=3)
        sender = simulation.sender.node_id
        random_churn(simulation, random.Random(2), duration=1_000.0,
                     leave_rate=0.002, join_rate=0.002, protect=[sender])
        for _ in range(5):
            simulation.sender.multicast()
        simulation.run(duration=5_000.0)
        # Members present from the start that never left must have
        # everything; joiners recover what sessions advertise to them.
        for seq in range(1, 6):
            assert simulation.all_received(seq)

    def test_generated_events_are_recorded_on_the_schedule(self):
        """Regression: random_churn used to self-schedule closures and
        return a schedule with an empty ``events`` list — inspection
        and replay tooling saw no churn at all."""
        simulation = build(n=10, seed=5)
        schedule = random_churn(simulation, random.Random(4),
                                duration=1_000.0,
                                leave_rate=0.003, join_rate=0.002)
        assert schedule.events
        assert schedule.events == sorted(
            schedule.events, key=lambda event: event.time
        )
        for event in schedule.events:
            if event.action == EVENT_JOIN:
                assert event.region is not None
            else:
                assert event.lazy and event.node is None

    def test_applied_events_carry_resolved_victims(self):
        simulation = build(n=10, seed=5)
        sender = simulation.sender.node_id
        schedule = random_churn(simulation, random.Random(4),
                                duration=1_000.0,
                                leave_rate=0.004, protect=[sender])
        simulation.run(duration=1_500.0)
        assert schedule.applied
        for event in schedule.applied:
            assert event.node is not None
            assert event.node != sender

    def test_group_never_empties(self):
        simulation = build(n=8, seed=4)
        sender = simulation.sender.node_id
        random_churn(simulation, random.Random(3), duration=3_000.0,
                     leave_rate=0.01, crash_rate=0.01, protect=[sender])
        simulation.run(duration=4_000.0)
        assert len(simulation.alive_members()) >= 1
        assert simulation.members[sender].alive
