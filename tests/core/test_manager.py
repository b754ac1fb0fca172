"""Unit tests for the two-phase buffer policy (§3, the contribution)."""

import pytest

from repro.core.buffer import DISCARD_HANDOFF, DISCARD_IDLE, DISCARD_TTL
from repro.core.manager import TwoPhaseBufferPolicy
from repro.protocol.messages import DataMessage
from tests.conftest import FakeBufferHost


def msg(seq: int) -> DataMessage:
    return DataMessage(seq=seq, sender=0)


def make_policy(host, c=6.0, t=40.0, ttl=None):
    policy = TwoPhaseBufferPolicy(idle_threshold=t, long_term_c=c, long_term_ttl=ttl)
    policy.bind(host)
    return policy


class TestShortTermPhase:
    def test_receive_buffers_and_arms_idle(self, sim, buffer_host):
        policy = make_policy(buffer_host, c=0.0)
        policy.on_receive(msg(1))
        assert policy.has(1)
        sim.run()
        assert not policy.has(1)  # idle at T=40, C=0 -> discarded

    def test_requests_extend_buffering(self, sim, buffer_host):
        policy = make_policy(buffer_host, c=0.0)
        policy.on_receive(msg(1))
        for t in (30.0, 60.0, 90.0):
            sim.at(t, policy.on_request, 1)
        sim.run()
        records = policy.buffer.records
        assert len(records) == 1
        assert records[0].discard_time == pytest.approx(130.0)  # 90 + 40

    def test_request_for_unbuffered_seq_ignored(self, sim, buffer_host):
        policy = make_policy(buffer_host, c=0.0)
        policy.on_request(99)  # no crash, no state
        assert policy.occupancy == 0

    def test_duplicate_receive_keeps_original_entry(self, sim, buffer_host):
        policy = make_policy(buffer_host, c=0.0)
        policy.on_receive(msg(1))
        sim.run(until=10.0)
        policy.on_receive(msg(1))
        sim.run()
        assert policy.buffer.records[0].receive_time == 0.0

    def test_trace_records_emitted(self, sim, buffer_host, trace):
        policy = make_policy(buffer_host, c=0.0)
        policy.on_receive(msg(1))
        sim.run()
        assert trace.count("buffer_add") == 1
        assert trace.count("buffer_idle") == 1
        assert trace.count("buffer_discard") == 1
        discard = trace.first("buffer_discard")
        assert discard["reason"] == "idle"
        assert discard["duration"] == pytest.approx(40.0)


class TestLongTermPhase:
    def test_c_equal_region_size_always_promotes(self, sim, buffer_host):
        buffer_host.set_region_size(5)
        policy = make_policy(buffer_host, c=10.0)  # P = min(1, 10/5) = 1
        policy.on_receive(msg(1))
        sim.run()
        assert policy.has(1)
        assert policy.buffer.get(1).long_term

    def test_promotion_probability_is_c_over_n(self, sim, buffer_host):
        buffer_host.set_region_size(100)
        policy = make_policy(buffer_host, c=50.0)  # P = 0.5
        total = 400
        for seq in range(total):
            policy.on_receive(msg(seq))
        sim.run()
        kept = policy.occupancy
        assert 140 < kept < 260  # ~Binomial(400, 0.5)

    def test_long_term_entry_survives_idle(self, sim, buffer_host):
        buffer_host.set_region_size(1)
        policy = make_policy(buffer_host, c=1.0)
        policy.on_receive(msg(1))
        sim.run()
        assert policy.has(1)

    def test_ttl_discards_unused_long_term_entry(self, sim, buffer_host):
        buffer_host.set_region_size(1)
        policy = make_policy(buffer_host, c=1.0, ttl=200.0)
        policy.on_receive(msg(1))
        sim.run()
        assert not policy.has(1)
        record = policy.buffer.records[0]
        assert record.reason == "long-term-ttl"
        assert record.was_long_term
        # idle at 40, TTL 200 after promotion -> discard at 240
        assert record.discard_time == pytest.approx(240.0)

    def test_serving_touches_ttl(self, sim, buffer_host, trace):
        buffer_host.set_region_size(1)
        policy = make_policy(buffer_host, c=1.0, ttl=200.0)
        policy.on_receive(msg(1))
        sim.at(100.0, policy.on_request, 1)  # promoted at 40; used at 100
        sim.run()
        record = policy.buffer.records[0]
        assert record.discard_time == pytest.approx(300.0)  # 100 + 200

    def test_long_term_selected_trace(self, sim, buffer_host, trace):
        buffer_host.set_region_size(1)
        policy = make_policy(buffer_host, c=1.0)
        policy.on_receive(msg(1))
        sim.run()
        assert trace.count("long_term_selected") == 1


class TestHandoff:
    def test_drain_returns_only_long_term_entries(self, sim, buffer_host):
        buffer_host.set_region_size(1)
        policy = make_policy(buffer_host, c=1.0)
        policy.on_receive(msg(1))
        sim.run()  # promoted
        policy.on_receive(msg(2))  # still short-term
        drained = policy.drain_for_handoff()
        assert [d.seq for d in drained] == [1]
        assert not policy.has(1)
        assert policy.has(2)

    def test_accept_handoff_installs_long_term(self, sim, buffer_host):
        policy = make_policy(buffer_host, c=0.0)
        policy.accept_handoff(msg(5))
        assert policy.has(5)
        assert policy.buffer.get(5).long_term
        sim.run()  # no idle timer should discard it
        assert policy.has(5)

    def test_accept_handoff_promotes_existing_short_term_entry(self, sim, buffer_host):
        policy = make_policy(buffer_host, c=0.0)
        policy.on_receive(msg(5))
        policy.accept_handoff(msg(5))
        sim.run()
        assert policy.has(5)  # idle timer was cancelled by promotion

    def test_handoff_records_reason(self, sim, buffer_host):
        buffer_host.set_region_size(1)
        policy = make_policy(buffer_host, c=1.0)
        policy.on_receive(msg(1))
        sim.run()
        policy.drain_for_handoff()
        assert policy.buffer.records[0].reason == "handoff"


class TestLongTermHandoffPath:
    """Satellite coverage for drain_for_handoff / accept_handoff:
    promotion of buffered entries, TTL re-arming, trace shapes."""

    def test_accept_handoff_arms_ttl(self, sim, buffer_host):
        """A handed-off entry is not immortal: the long-term TTL is
        armed from the moment of acceptance."""
        policy = make_policy(buffer_host, c=0.0, ttl=200.0)
        sim.run(until=50.0)
        policy.accept_handoff(msg(5))
        sim.run()
        assert not policy.has(5)
        [record] = policy.buffer.records
        assert record.reason == "long-term-ttl"
        assert record.was_long_term
        assert record.discard_time == pytest.approx(250.0)  # 50 + TTL

    def test_promoting_handoff_rearms_ttl_from_acceptance(self, sim, buffer_host):
        """Promotion of an already-buffered short-term entry restarts
        the use clock: the TTL counts from the handoff, not from the
        original receipt."""
        policy = make_policy(buffer_host, c=0.0, ttl=200.0)
        policy.on_receive(msg(5))          # received at t=0, idle at 40
        sim.run(until=30.0)
        policy.accept_handoff(msg(5))      # promoted at t=30
        sim.run()
        [record] = policy.buffer.records
        assert record.reason == "long-term-ttl"
        assert record.receive_time == 0.0  # the original entry survived
        assert record.discard_time == pytest.approx(230.0)  # 30 + TTL

    def test_requests_rearm_ttl_of_handed_off_entry(self, sim, buffer_host):
        policy = make_policy(buffer_host, c=0.0, ttl=200.0)
        policy.accept_handoff(msg(5))
        sim.at(150.0, policy.on_request, 5)
        sim.run()
        [record] = policy.buffer.records
        assert record.discard_time == pytest.approx(350.0)  # 150 + TTL

    def test_drain_disarms_ttl_and_empties_long_term(self, sim, buffer_host):
        policy = make_policy(buffer_host, c=0.0, ttl=200.0)
        policy.accept_handoff(msg(5))
        policy.accept_handoff(msg(6))
        drained = policy.drain_for_handoff()
        assert sorted(d.seq for d in drained) == [5, 6]
        assert policy.occupancy == 0
        sim.run()  # no TTL timer may fire after the drain
        reasons = {record.reason for record in policy.buffer.records}
        assert reasons == {"handoff"}

    def test_drain_trace_event_shape(self, sim, buffer_host, trace):
        buffer_host.set_region_size(1)
        policy = make_policy(buffer_host, c=1.0)
        policy.on_receive(msg(1))
        sim.run()  # idle at 40, promoted (C/n = 1)
        sim.run(until=100.0)
        policy.drain_for_handoff()
        [discard] = list(trace.of_kind("buffer_discard"))
        assert discard["node"] == buffer_host.node_id
        assert discard["seq"] == 1
        assert discard["reason"] == "handoff"
        assert discard["was_long_term"] is True
        assert discard["duration"] == pytest.approx(100.0)

    def test_accept_handoff_trace_event_shape(self, sim, buffer_host, trace):
        policy = make_policy(buffer_host, c=0.0)
        policy.accept_handoff(msg(5))
        added = trace.first("buffer_add")
        assert added is not None and added["seq"] == 5
        selected = trace.first("long_term_selected")
        assert selected["node"] == buffer_host.node_id
        assert selected["seq"] == 5
        assert selected["via"] == "handoff"

    def test_promotion_emits_handoff_trace_without_new_add(self, sim, buffer_host, trace):
        policy = make_policy(buffer_host, c=0.0)
        policy.on_receive(msg(5))
        policy.accept_handoff(msg(5))
        assert trace.count("buffer_add") == 1  # promotion, not re-add
        selected = trace.first("long_term_selected")
        assert selected["via"] == "handoff"


class TestLifecycle:
    def test_bind_required(self):
        policy = TwoPhaseBufferPolicy()
        with pytest.raises(RuntimeError):
            policy.on_receive(msg(1))

    def test_close_cancels_timers_and_drops_state(self, sim, buffer_host):
        policy = make_policy(buffer_host, c=0.0)
        policy.on_receive(msg(1))
        policy.close()
        sim.run()
        assert policy.occupancy == 0
        # No idle trace: the timer was cancelled, not fired.
        assert buffer_host.trace.count("buffer_idle") == 0


class TestHandoffIndexConsistency:
    """Long-term flags and views across drain_for_handoff / accept_handoff trips."""

    def _build(self, sim, trace, seed=99):
        host = FakeBufferHost(sim, trace, seed=seed)
        policy = TwoPhaseBufferPolicy(idle_threshold=40.0, long_term_c=200.0)
        policy.bind(host)
        return policy

    def test_handoff_round_trip_moves_every_long_term_copy(self, sim, trace):
        leaver = self._build(sim, trace, seed=1)
        receiver = self._build(sim, trace, seed=2)
        for seq in (1, 2, 3):
            leaver.on_receive(DataMessage(seq=seq, sender=0))
        sim.run()  # C=200 over n=100: every idle entry promotes
        assert leaver.buffer.long_term_count == 3
        transferred = leaver.drain_for_handoff()
        assert {data.seq for data in transferred} == {1, 2, 3}
        assert leaver.buffer.long_term_count == 0
        assert leaver.buffer.occupancy == 0
        assert list(leaver.buffer.long_term_seqs()) == []
        for data in transferred:
            receiver.accept_handoff(data)
        assert receiver.buffer.long_term_count == 3
        assert sorted(receiver.buffer.long_term_seqs()) == [1, 2, 3]
        for seq in (1, 2, 3):
            assert receiver.buffer.get(seq).long_term

    def test_accept_handoff_promotes_existing_short_term_entry(self, sim, trace):
        policy = self._build(sim, trace)
        data = DataMessage(seq=4, sender=0)
        policy.on_receive(data)
        assert not policy.buffer.get(4).long_term
        policy.accept_handoff(data)
        assert policy.buffer.get(4).long_term
        assert policy.buffer.long_term_count == 1
        assert 4 not in policy._clocks  # idle clock gone, and no TTL configured


def deadline(policy, seq):
    """When *seq*'s one clock runs out, or ``None`` if it has no clock."""
    timer = policy._clocks.get(seq)
    return None if timer is None else timer.deadline


class TestIdleClock:
    """§3.1: a short-term copy's clock is its idle deadline."""

    def test_idle_after_t(self, sim, buffer_host, trace):
        policy = make_policy(buffer_host, c=0.0)
        policy.on_receive(msg(1))
        assert deadline(policy, 1) == pytest.approx(40.0)
        sim.run()
        assert trace.first("buffer_idle").time == pytest.approx(40.0)
        [record] = policy.buffer.records
        assert (record.reason, record.discard_time) == (DISCARD_IDLE, pytest.approx(40.0))
        assert policy._clocks == {}

    def test_requests_push_the_deadline_back(self, sim, buffer_host):
        """Each request resets the countdown to now + T (the paper's rule)."""
        policy = make_policy(buffer_host, c=0.0)
        policy.on_receive(msg(1))
        for t in (10.0, 20.0, 30.0, 60.0):
            sim.at(t, policy.on_request, 1)
        sim.run(until=60.0)
        assert deadline(policy, 1) == pytest.approx(100.0)
        sim.run()
        assert policy.buffer.records[0].discard_time == pytest.approx(100.0)  # 60 + 40

    def test_serving_a_short_term_copy_leaves_its_deadline(self, sim, buffer_host):
        policy = make_policy(buffer_host, c=0.0, ttl=200.0)
        policy.on_receive(msg(1))
        sim.run(until=30.0)
        policy.on_serve(1)
        assert deadline(policy, 1) == pytest.approx(40.0)

    def test_duplicate_receive_does_not_reset_the_deadline(self, sim, buffer_host):
        policy = make_policy(buffer_host, c=0.0)
        policy.on_receive(msg(1))
        sim.at(20.0, policy.on_receive, msg(1))
        sim.run()
        assert policy.buffer.records[0].discard_time == pytest.approx(40.0)

    def test_independent_copies(self, sim, buffer_host):
        policy = make_policy(buffer_host, c=0.0)
        policy.on_receive(msg(1))
        sim.at(10.0, policy.on_receive, msg(2))
        sim.at(30.0, policy.on_request, 1)
        sim.run()
        assert [(r.seq, r.discard_time) for r in policy.buffer.records] == [
            (2, pytest.approx(50.0)), (1, pytest.approx(70.0)),
        ]

    def test_receive_again_after_idle(self, sim, buffer_host):
        """A message received again after its idle discard gets a fresh clock."""
        policy = make_policy(buffer_host, c=0.0)
        policy.on_receive(msg(1))
        sim.run()
        policy.on_receive(msg(1))
        assert deadline(policy, 1) == pytest.approx(80.0)
        sim.run()
        assert [r.discard_time for r in policy.buffer.records] == [
            pytest.approx(40.0), pytest.approx(80.0),
        ]


class TestTtlClock:
    """§3.2: a long-term copy's clock is its TTL, and it has none
    without one."""

    def test_promotion_turns_the_idle_clock_into_the_ttl(self, sim, buffer_host):
        buffer_host.set_region_size(1)
        policy = make_policy(buffer_host, c=1.0, ttl=200.0)
        policy.on_receive(msg(1))
        timer = policy._clocks[1]
        sim.run(until=40.0)
        assert policy.buffer.get(1).long_term
        assert policy._clocks[1] is timer
        assert deadline(policy, 1) == pytest.approx(240.0)

    def test_no_ttl_means_no_clock(self, sim, buffer_host):
        buffer_host.set_region_size(1)
        policy = make_policy(buffer_host, c=1.0)
        policy.on_receive(msg(1))
        sim.run()
        assert policy.buffer.get(1).long_term
        assert policy._clocks == {}
        assert sim.pending_events == 0
        assert policy.on_request(1) is not None  # a request arms nothing
        policy.on_serve(1)
        assert policy._clocks == {} and sim.pending_events == 0

    def test_serving_touches_the_ttl(self, sim, buffer_host):
        buffer_host.set_region_size(1)
        policy = make_policy(buffer_host, c=1.0, ttl=200.0)
        policy.on_receive(msg(1))
        sim.at(50.0, policy.on_serve, 1)  # promoted at 40
        sim.run()
        [record] = policy.buffer.records
        assert (record.reason, record.discard_time) == (DISCARD_TTL, pytest.approx(250.0))

    def test_close_cancels_every_clock(self, sim, buffer_host, trace):
        buffer_host.set_region_size(1)
        policy = make_policy(buffer_host, c=1.0, ttl=200.0)
        policy.on_receive(msg(1))
        sim.run(until=40.0)  # 1 is long-term, on its TTL
        policy.on_receive(msg(2))  # 2 is short-term, on its idle clock
        assert set(policy._clocks) == {1, 2}
        policy.close()
        assert policy._clocks == {}
        sim.run()
        assert {record.reason for record in policy.buffer.records} == {"close"}
        assert trace.count("buffer_idle") == 1  # only 1's, before the close

    def test_rehandoff_pushes_the_armed_ttl_back_in_place(self, sim, buffer_host):
        """A second handoff of a copy that is already long-term restarts
        its TTL on the armed timer: the stale event fires at the old
        deadline and re-queues once, under the seq the push-back
        reserved, exactly as before the idle clock and TTL were merged."""
        buffer_host.set_region_size(1)
        policy = make_policy(buffer_host, c=1.0, ttl=200.0)
        policy.on_receive(msg(1))
        sim.run(until=100.0)  # idle at 40, TTL due at 240
        policy.accept_handoff(msg(1))
        assert deadline(policy, 1) == pytest.approx(300.0)
        sim.run()
        [record] = policy.buffer.records
        assert (record.reason, record.discard_time) == (DISCARD_TTL, pytest.approx(300.0))
        # idle clock at 40, the stale TTL event at 240, its catch-up at 300
        assert sim.events_fired == 3


class TestDrainOrder:
    def test_drain_returns_admission_order(self, sim, buffer_host):
        """Handoff plans draw one peer per drained copy, so the drain
        order is part of every leave's sample path: it is the order the
        copies were (re)admitted, not seq or promotion order."""
        policy = make_policy(buffer_host, c=0.0, ttl=500.0)
        for seq in (7, 3, 5, 9):
            policy.on_receive(msg(seq))
        sim.run()  # C = 0: every copy idles out and is discarded
        for seq in (9, 5, 3, 7):  # re-admitted in a new order
            policy.on_receive(msg(seq))
        for seq in (3, 7, 5):     # promoted in yet another
            policy.accept_handoff(msg(seq))
        assert list(policy.buffer.long_term_seqs()) == [5, 3, 7]
        assert [data.seq for data in policy.drain_for_handoff()] == [5, 3, 7]
        assert [r.seq for r in policy.buffer.records if r.reason == DISCARD_HANDOFF] == [5, 3, 7]
        assert list(policy.buffer.seqs()) == [9]


class TestInputChecks:
    @pytest.mark.parametrize("kwargs", [
        {"idle_threshold": 0.0}, {"idle_threshold": -1.0},
        {"idle_threshold": float("inf")}, {"idle_threshold": float("nan")},
        {"long_term_c": -1.0}, {"long_term_c": float("inf")},
        {"long_term_c": float("nan")},
        {"long_term_ttl": 0.0}, {"long_term_ttl": float("inf")},
        {"long_term_ttl": float("nan")},
    ])
    def test_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            TwoPhaseBufferPolicy(**kwargs)

    def test_c_zero_and_no_ttl_accepted(self):
        TwoPhaseBufferPolicy(long_term_c=0.0, long_term_ttl=None)
