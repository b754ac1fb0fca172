"""Edge-case tests for protocol configuration and wire messages."""

from dataclasses import replace

import pytest

from repro.net.topology import Hierarchy, chain, single_region
from repro.protocol.config import POLICY_KINDS, FecSpec, PolicySpec
from repro.protocol.messages import (
    CONTROL_WIRE_SIZE,
    DATA_WIRE_SIZE,
    REPAIR_LOCAL,
    DataMessage,
    HandoffMessage,
    HaveReply,
    LocalRequest,
    RemoteRequest,
    Repair,
    SearchRequest,
    SessionMessage,
)
from repro.protocol.rrmp import RrmpSimulation, default_sender_node


class TestPolicySpec:
    def test_defaults_match_paper_values(self):
        config = PolicySpec()
        assert config.idle_threshold == 40.0   # 4 x max RTT (§4)
        assert config.c == 6.0                 # §3.2's example value
        assert config.remote_lambda == 1.0     # §2.2's example value

    def test_long_term_c_reads_c_and_cannot_be_set(self):
        config = PolicySpec(c=2.5)
        assert config.long_term_c == 2.5
        with pytest.raises(AttributeError):
            config.long_term_c = 1.0  # type: ignore[misc]

    def test_replace_returns_new_frozen_copy(self):
        base = PolicySpec()
        other = replace(base, c=3.0)
        assert other.c == 3.0
        assert base.c == 6.0
        with pytest.raises(Exception):
            other.c = 1.0  # type: ignore[misc]

    @pytest.mark.parametrize("field, value, message", [
        ("remote_lambda", -1.0, "remote_lambda must be >= 0, got -1.0"),
        ("c", -0.5, "c must be >= 0, got -0.5"),
        ("idle_threshold", 0.0, "idle_threshold must be > 0, got 0.0"),
        ("idle_threshold", -1, "idle_threshold must be > 0, got -1.0"),
        ("timer_factor", 0.0, "timer_factor must be > 0, got 0.0"),
        ("timer_factor", 1.7e308, "timer_factor must be <= 1e6, got 1.7e+308"),
        ("hold_time", 0.0, "hold_time must be > 0, got 0.0"),
        ("session_interval", 0.0, "session_interval must be > 0, got 0.0"),
        ("long_term_ttl", -5.0, "long_term_ttl must be > 0, got -5.0"),
        ("max_recovery_time", 0.0, "max_recovery_time must be > 0, got 0.0"),
        ("max_search_rounds", 0, "max_search_rounds must be > 0, got 0"),
        ("idle_threshold", float("nan"),
         "PolicySpec.idle_threshold must be finite float, got nan"),
        ("max_search_rounds", 2.5,
         "PolicySpec.max_search_rounds must be Optional[int], got 2.5"),
        ("kind", "lru", "PolicySpec.kind must be Literal['two_phase', "),
    ])
    def test_invalid_values_rejected(self, field, value, message):
        with pytest.raises(ValueError) as refused:
            PolicySpec(**{field: value})
        assert str(refused.value).startswith(message)


class TestFecSpec:
    @pytest.mark.parametrize("changes, message", [
        (dict(mode="sometimes"),
         "FecSpec.mode must be Literal['off', 'proactive', 'reactive'], got 'sometimes'"),
        (dict(block_size=0), "fec block_size must be >= 1, got 0"),
        (dict(parity=-1), "fec parity must be >= 0 with mode 'off', got -1"),
        (dict(mode="proactive", parity=0),
         "fec parity must be >= 1 with mode 'proactive', got 0"),
        (dict(mode="reactive", block_size=250, parity=7),
         "fec block_size + parity must be <= 256 (GF(256) limit), got 257"),
        (dict(block_size=True), "FecSpec.block_size must be int, got True"),
        (dict(flush_after=-1.0), "flush_after must be >= 0, got -1.0"),
    ])
    def test_invalid_values_rejected(self, changes, message):
        with pytest.raises(ValueError) as refused:
            FecSpec(**changes)
        assert str(refused.value).startswith(message)

    def test_off_admits_any_parity_and_the_largest_block_is_accepted(self):
        assert not FecSpec(parity=0).enabled
        assert FecSpec(mode="proactive", block_size=255, parity=1).enabled


class TestMessages:
    def test_data_is_data_kind(self):
        data = DataMessage(seq=1, sender=0)
        assert data.kind == "data"
        assert data.wire_size == DATA_WIRE_SIZE

    def test_requests_are_control_kind(self):
        for message in (
            LocalRequest(seq=1, requester=0),
            RemoteRequest(seq=1, requester=0),
            SessionMessage(sender=0, max_seq=5),
            SearchRequest(seq=1, waiters=(9,), forwarder=0),
            HaveReply(seq=1, owner=0),
        ):
            assert message.kind == "control"
            assert message.wire_size == CONTROL_WIRE_SIZE

    def test_repairs_carry_data_and_seq(self):
        data = DataMessage(seq=7, sender=0, payload=b"x")
        repair = Repair(data=data, responder=3, scope=REPAIR_LOCAL)
        assert repair.kind == "data"
        assert repair.seq == 7
        assert repair.data.payload == b"x"

    def test_handoff_carries_data_and_seq(self):
        data = DataMessage(seq=9, sender=0)
        handoff = HandoffMessage(data=data, from_member=4)
        assert handoff.kind == "data"
        assert handoff.seq == 9

    def test_messages_are_immutable(self):
        data = DataMessage(seq=1, sender=0)
        with pytest.raises(Exception):
            data.seq = 2  # type: ignore[misc]

    def test_search_request_default_hops(self):
        request = SearchRequest(seq=1, waiters=(9,), forwarder=0)
        assert request.hops == 0


class TestFacadeEdgeCases:
    def test_empty_hierarchy_rejected(self):
        hierarchy = Hierarchy()
        hierarchy.add_region(0)
        with pytest.raises(ValueError):
            RrmpSimulation(hierarchy)

    def test_the_sender_is_the_default_sender_node(self):
        hierarchy = chain([2, 3])
        simulation = RrmpSimulation(hierarchy)
        assert simulation.sender.node_id == default_sender_node(hierarchy) == 0

    def test_invalid_hierarchy_rejected_on_construction(self):
        hierarchy = single_region(3)
        hierarchy.regions[0].members.append(0)  # duplicate placement
        with pytest.raises(Exception):
            RrmpSimulation(hierarchy)

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_every_policy_kind_builds_its_policy_from_the_config_alone(self, kind):
        """``PolicySpec.kind`` is the one way to choose a member's buffer
        policy: no kind silently runs as another."""
        expected = {
            "two_phase": "TwoPhaseBufferPolicy", "fixed_time": "FixedTimePolicy",
            "stability": "StabilityBufferPolicy", "hash": "HashBuffererPolicy",
            "never_discard": "NeverDiscardPolicy", "no_buffer": "NoBufferPolicy",
        }
        simulation = RrmpSimulation(single_region(4), config=PolicySpec(kind=kind,
                                                                        hold_time=75.0, c=3.0))
        policies = {type(member.policy).__name__ for member in simulation.members.values()}
        assert policies == {expected[kind]}
        policy = simulation.member(1).policy
        assert getattr(policy, "hold_time", 75.0) == 75.0
        assert getattr(policy, "expected_bufferers", 3.0) == 3.0
        assert getattr(policy, "long_term_c", 3.0) == 3.0

    def test_member_lookup(self):
        simulation = RrmpSimulation(single_region(4))
        assert simulation.member(2).node_id == 2
        with pytest.raises(KeyError):
            simulation.member(99)

    def test_occupancy_by_node_covers_alive_members(self):
        simulation = RrmpSimulation(single_region(4))
        assert set(simulation.occupancy_by_node()) == {0, 1, 2, 3}
        simulation.members[1].crash()
        assert set(simulation.occupancy_by_node()) == {0, 2, 3}

    def test_trace_disabled_mode(self):
        simulation = RrmpSimulation(single_region(4), keep_trace=False)
        simulation.sender.multicast()
        simulation.run(duration=100.0)
        assert simulation.trace.records == []
        assert simulation.all_received(1)  # protocol unaffected
