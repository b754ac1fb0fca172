"""``BufferPolicy.on_request`` answers with the buffered body.

The member answers a local, remote or search request with whatever
``on_request`` returns, so the feedback call is also the one buffer
lookup per answer.  For every concrete policy, generated programs of
receipts, requests and elapsed time check that it returns exactly the
buffered body (the object ``get`` returns), or ``None`` when nothing is
buffered, and that a request never evicts.  The two-phase policy must
still treat the request as feedback: the copy's one clock is due again
``T`` from now while it is short-term, or the TTL from now once it is
long-term.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.manager import TwoPhaseBufferPolicy
from repro.core.policies import (
    FixedTimePolicy,
    NeverDiscardPolicy,
    NoBufferPolicy,
    StabilityBufferPolicy,
)
from repro.hashing.deterministic import HashBuffererPolicy
from repro.protocol.messages import DataMessage
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceLog
from tests.conftest import FakeBufferHost

IDLE, TTL = 40.0, 200.0

POLICIES = {
    "two_phase": lambda: TwoPhaseBufferPolicy(idle_threshold=IDLE, long_term_c=3.0,
                                              long_term_ttl=TTL),
    "no_buffer": NoBufferPolicy,
    "never_discard": NeverDiscardPolicy,
    "fixed_time": lambda: FixedTimePolicy(hold_time=60.0),
    "hash": lambda: HashBuffererPolicy(expected_bufferers=3.0),
    "stability": StabilityBufferPolicy,
}

programs = st.lists(
    st.tuples(st.sampled_from(("receive", "request", "advance")),
              st.integers(0, 5), st.floats(0.0, 120.0)),
    max_size=40,
)


def check_feedback(policy, seq, now):
    """The two-phase refresh a request must still make."""
    delay = TTL if policy.buffer.get(seq).long_term else IDLE
    assert policy._clocks[seq].deadline == now + delay


@pytest.mark.parametrize("name", sorted(POLICIES))
@given(program=programs)
def test_on_request_returns_the_buffered_body_or_none(name, program):
    sim = Simulator()
    policy = POLICIES[name]()
    policy.bind(FakeBufferHost(sim, TraceLog(), region_size=4))
    received = set()
    for op, seq, elapsed in program:
        if op == "receive":
            if seq not in received:  # a member hands each message over once
                received.add(seq)
                policy.on_receive(DataMessage(seq=seq, sender=0))
        elif op == "advance":
            sim.run(until=sim.now + elapsed)
        else:
            expected = policy.get(seq)
            assert policy.on_request(seq) is expected
            assert policy.get(seq) is expected
            if expected is not None and name == "two_phase":
                check_feedback(policy, seq, sim.now)


def test_two_phase_request_refreshes_a_long_term_copy():
    """A fixed example of the long-term branch (C = n: every coin keeps)."""
    sim = Simulator()
    policy = TwoPhaseBufferPolicy(idle_threshold=IDLE, long_term_c=4.0, long_term_ttl=TTL)
    policy.bind(FakeBufferHost(sim, TraceLog(), region_size=4))
    body = DataMessage(seq=3, sender=0)
    policy.on_receive(body)
    sim.run(until=IDLE + 10.0)
    assert policy.buffer.get(3).long_term
    assert policy.on_request(3) is body
    check_feedback(policy, 3, IDLE + 10.0)
    assert policy.on_request(4) is None
