"""Unit tests for leave-time handoff planning (§3.2)."""

import random
from collections import Counter

from repro.core.handoff import plan_handoff
from repro.protocol.messages import DataMessage


def msgs(count):
    return [DataMessage(seq=i, sender=0) for i in range(1, count + 1)]


class TestPlanHandoff:
    def test_every_message_gets_a_target(self):
        plan = plan_handoff(0, msgs(5), [0, 1, 2, 3], random.Random(1))
        assert len(plan) == 5
        for target, handoff in plan:
            assert target != 0
            assert target in (1, 2, 3)
            assert handoff.from_member == 0

    def test_last_member_cannot_hand_off(self):
        assert plan_handoff(0, msgs(3), [0], random.Random(1)) == []

    def test_empty_buffer_empty_plan(self):
        assert plan_handoff(0, [], [0, 1], random.Random(1)) == []

    def test_targets_are_randomized_per_message(self):
        plan = plan_handoff(0, msgs(50), list(range(10)), random.Random(3))
        targets = {target for target, _ in plan}
        assert len(targets) > 3  # spread, not dumped on one member

    def test_deterministic_given_rng(self):
        plan_a = plan_handoff(0, msgs(10), [0, 1, 2], random.Random(5))
        plan_b = plan_handoff(0, msgs(10), [0, 1, 2], random.Random(5))
        assert [(t, h.seq) for t, h in plan_a] == [(t, h.seq) for t, h in plan_b]

    def test_handoff_message_carries_data(self):
        data = DataMessage(seq=9, sender=0, payload="body")
        [(_target, handoff)] = plan_handoff(0, [data], [0, 1], random.Random(1))
        assert handoff.data is data
        assert handoff.seq == 9


class TestHandoffLoad:
    def test_histogram(self):
        plan = plan_handoff(0, msgs(100), [0, 1, 2], random.Random(2))
        load = Counter(target for target, _message in plan)
        assert sum(load.values()) == 100
        assert set(load) <= {1, 2}
        # Roughly even split between the two candidates.
        assert abs(load[1] - load[2]) < 40
