"""Edge-case tests for protocol configuration and wire messages."""

from dataclasses import replace

import pytest

from repro.net.topology import Hierarchy, single_region
from repro.protocol.config import PAPER_SECTION4_CONFIG, RrmpConfig
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
from repro.protocol.rrmp import RrmpSimulation


class TestRrmpConfig:
    def test_defaults_match_paper_values(self):
        config = RrmpConfig()
        assert config.idle_threshold == 40.0   # 4 x max RTT (§4)
        assert config.long_term_c == 6.0       # §3.2's example value
        assert config.remote_lambda == 1.0     # §2.2's example value

    def test_paper_section4_config(self):
        assert PAPER_SECTION4_CONFIG.long_term_c == 0.0
        assert PAPER_SECTION4_CONFIG.session_interval is None
        assert PAPER_SECTION4_CONFIG.idle_threshold == 40.0

    def test_replace_returns_new_frozen_copy(self):
        base = RrmpConfig()
        other = replace(base, long_term_c=3.0)
        assert other.long_term_c == 3.0
        assert base.long_term_c == 6.0
        with pytest.raises(Exception):
            other.long_term_c = 1.0  # type: ignore[misc]

    @pytest.mark.parametrize("field, value", [
        ("remote_lambda", -1.0),
        ("long_term_c", -0.5),
        ("idle_threshold", 0.0),
        ("timer_factor", 0.0),
        ("session_interval", 0.0),
        ("long_term_ttl", -5.0),
        ("regional_backoff_max", -1.0),
        ("max_recovery_time", 0.0),
        ("max_search_rounds", 0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            RrmpConfig(**{field: value})


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

    def test_explicit_sender_node(self):
        simulation = RrmpSimulation(single_region(5), sender_node=3)
        assert simulation.sender.node_id == 3

    def test_invalid_hierarchy_rejected_on_construction(self):
        hierarchy = single_region(3)
        hierarchy.regions[0].members.append(0)  # duplicate placement
        with pytest.raises(Exception):
            RrmpSimulation(hierarchy)

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
