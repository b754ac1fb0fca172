"""Tests for deterministic hash-based bufferer selection (ref [11])."""

import pytest

from repro.hashing.deterministic import (
    HashBuffererPolicy,
    bufferers_for,
    hash_evaluations,
    hash_unit,
    is_selected,
    reset_hash_counter,
)
from repro.protocol.messages import DataMessage


def msg(seq: int) -> DataMessage:
    return DataMessage(seq=seq, sender=0)


class TestHashFunction:
    def test_deterministic(self):
        assert hash_unit(5, 17) == hash_unit(5, 17)

    def test_uniform_range(self):
        values = [hash_unit(member, 1) for member in range(2_000)]
        assert all(0.0 <= value < 1.0 for value in values)
        assert 0.45 < sum(values) / len(values) < 0.55

    def test_member_and_seq_both_matter(self):
        assert hash_unit(1, 1) != hash_unit(2, 1)
        assert hash_unit(1, 1) != hash_unit(1, 2)

    def test_counter_tracks_evaluations(self):
        reset_hash_counter()
        hash_unit(1, 1)
        hash_unit(2, 1)
        assert hash_evaluations() == 2
        reset_hash_counter()
        assert hash_evaluations() == 0


class TestSelection:
    def test_requester_and_bufferer_agree(self):
        """The crucial property: selection computable by anyone."""
        members = list(range(100))
        selected = bufferers_for(7, members, expected_bufferers=6.0)
        for member in members:
            assert (member in selected) == is_selected(member, 7, 6.0, 100)

    def test_expected_count_near_c(self):
        members = list(range(100))
        counts = [len(bufferers_for(seq, members, 6.0)) for seq in range(200)]
        average = sum(counts) / len(counts)
        assert 4.5 < average < 7.5

    def test_different_messages_select_different_members(self):
        members = list(range(100))
        sets = {frozenset(bufferers_for(seq, members, 6.0)) for seq in range(20)}
        assert len(sets) > 15  # load spreads across the region

    def test_order_is_by_hash_so_requesters_coalesce(self):
        members = list(range(50))
        order_a = bufferers_for(3, members, 10.0)
        order_b = bufferers_for(3, list(reversed(members)), 10.0)
        assert order_a == order_b

    def test_empty_region(self):
        assert bufferers_for(1, [], 6.0) == []

    def test_zero_c_selects_nobody(self):
        assert bufferers_for(1, list(range(50)), 0.0) == []


class TestHashBuffererPolicy:
    def test_buffers_iff_selected(self, sim, buffer_host):
        policy = HashBuffererPolicy(expected_bufferers=6.0)
        policy.bind(buffer_host)
        for seq in range(1, 200):
            policy.on_receive(msg(seq))
        expected = sum(
            1 for seq in range(1, 200)
            if is_selected(buffer_host.node_id, seq, 6.0, buffer_host.region_size())
        )
        assert policy.occupancy == expected

    def test_selected_entries_never_expire(self, sim, buffer_host):
        policy = HashBuffererPolicy(expected_bufferers=100.0)  # select all
        policy.bind(buffer_host)
        policy.on_receive(msg(1))
        sim.run(until=1_000_000.0)
        assert policy.has(1)

    def test_locate_bufferers_excluding_none(self, sim, buffer_host):
        policy = HashBuffererPolicy(expected_bufferers=6.0)
        policy.bind(buffer_host)
        located = policy.locate_bufferers(1, list(range(100)))
        assert located == bufferers_for(1, list(range(100)), 6.0)

    def test_invalid_c_rejected(self):
        with pytest.raises(ValueError):
            HashBuffererPolicy(expected_bufferers=-1.0)


class TestEndToEnd:
    def test_hash_policy_serves_late_remote_request(self):
        """A region running the hash policy answers a late request via
        direct lookup instead of the randomized search."""
        from repro.experiments.ablation_hash import trial_hash_vs_random
        result = trial_hash_vs_random(
            {"use_hash": True, "n": 50, "c": 6.0, "request_at": 200.0,
             "horizon": 1_500.0},
            seed=0,
        )
        assert result["unserved"] == 0.0
        assert result["locate time (ms)"] <= 20.0
        assert result["hash evaluations"] >= 50  # the computation cost
