"""Unit tests for the policy interface and simple baseline policies."""

import pytest

from repro.core.policies import (
    BufferPolicy,
    FixedTimePolicy,
    NeverDiscardPolicy,
    NoBufferPolicy,
)
from repro.protocol.messages import DataMessage


def msg(seq: int) -> DataMessage:
    return DataMessage(seq=seq, sender=0)


class TestNoBufferPolicy:
    def test_never_buffers(self, sim, buffer_host):
        policy = NoBufferPolicy()
        policy.bind(buffer_host)
        policy.on_receive(msg(1))
        assert not policy.has(1)
        assert policy.get(1) is None
        assert policy.occupancy == 0


class TestNeverDiscardPolicy:
    def test_keeps_everything(self, sim, buffer_host):
        policy = NeverDiscardPolicy()
        policy.bind(buffer_host)
        for seq in range(10):
            policy.on_receive(msg(seq))
        sim.run(until=1_000_000.0)
        assert policy.occupancy == 10

    def test_drain_for_handoff_default_empty(self, sim, buffer_host):
        policy = NeverDiscardPolicy()
        policy.bind(buffer_host)
        policy.on_receive(msg(1))
        assert policy.drain_for_handoff() == []

    def test_accept_handoff_default_buffers_like_on_receive(self, sim, buffer_host):
        handed, received = FixedTimePolicy(hold_time=100.0), FixedTimePolicy(hold_time=100.0)
        handed.bind(buffer_host)
        received.bind(buffer_host)
        handed.accept_handoff(msg(1))
        received.on_receive(msg(1))
        assert handed.has(1) and received.has(1)
        sim.run()
        assert not handed.has(1) and not received.has(1)

    def test_locate_bufferers_default_has_no_candidates(self, sim, buffer_host):
        policy = NeverDiscardPolicy()
        policy.bind(buffer_host)
        policy.on_receive(msg(1))
        assert policy.locate_bufferers(1, list(range(10))) == []

    def test_notify_stable_default_keeps_every_copy(self, sim, buffer_host):
        policy = NeverDiscardPolicy()
        policy.bind(buffer_host)
        policy.on_receive(msg(1))
        assert policy.notify_stable(1) == 0
        assert policy.has(1)


class TestFixedTimePolicy:
    def test_discards_after_hold_time(self, sim, buffer_host):
        policy = FixedTimePolicy(hold_time=200.0)
        policy.bind(buffer_host)
        policy.on_receive(msg(1))
        sim.run(until=199.0)
        assert policy.has(1)
        sim.run(until=201.0)
        assert not policy.has(1)

    def test_requests_do_not_extend_hold(self, sim, buffer_host):
        """The contrast with the feedback scheme: fixed time is blind."""
        policy = FixedTimePolicy(hold_time=100.0)
        policy.bind(buffer_host)
        policy.on_receive(msg(1))
        sim.at(90.0, policy.on_request, 1)
        sim.run()
        assert policy.buffer.records[0].discard_time == pytest.approx(100.0)

    def test_discard_record_and_trace(self, sim, buffer_host, trace):
        policy = FixedTimePolicy(hold_time=50.0)
        policy.bind(buffer_host)
        policy.on_receive(msg(1))
        sim.run()
        assert policy.buffer.records[0].reason == "fixed-timeout"
        assert trace.count("buffer_discard") == 1

    def test_duplicate_receive_single_expiry(self, sim, buffer_host):
        policy = FixedTimePolicy(hold_time=50.0)
        policy.bind(buffer_host)
        policy.on_receive(msg(1))
        policy.on_receive(msg(1))
        sim.run()
        assert len(policy.buffer.records) == 1

    def test_close_cancels_expiries(self, sim, buffer_host):
        policy = FixedTimePolicy(hold_time=50.0)
        policy.bind(buffer_host)
        policy.on_receive(msg(1))
        policy.close()
        sim.run()
        # Entry was dropped by close(), not by the (cancelled) expiry.
        assert policy.buffer.records[0].reason == "close"

    def test_invalid_hold_time(self):
        with pytest.raises(ValueError):
            FixedTimePolicy(hold_time=0.0)


class TestPolicyBase:
    def test_host_access_before_bind_raises(self):
        policy = NeverDiscardPolicy()
        with pytest.raises(RuntimeError):
            _ = policy.host

    def test_abstract_interface(self):
        with pytest.raises(TypeError):
            BufferPolicy()  # type: ignore[abstract]
