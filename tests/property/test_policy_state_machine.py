"""Stateful property test: one clock per buffered copy.

Drives :class:`repro.core.manager.TwoPhaseBufferPolicy` with random
receive, request, serve, advance-time, handoff-in, drain and close
steps while keeping an independent model (seq → long-term flag and the
instant its clock is due, in admission order), and asserts after every
step that

* every short-term copy has exactly one armed clock, due at its last
  feedback + T;
* every long-term copy has one clock, due at its last use + TTL, only
  when a TTL is set;
* nothing else has a clock;

and that the buffer's flags, ``long_term_seqs`` order and
``long_term_count`` agree with the model.  The §3.2 coin is resolved by
observation: with region size 2, C ∈ {0, 1, 2} gives P = 0, ½ or 1, and
the model reads which way a fair coin fell off the buffer at the
instant the idle clock ran out.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.buffer import DISCARD_IDLE, DISCARD_TTL
from repro.core.manager import TwoPhaseBufferPolicy
from repro.protocol.messages import DataMessage
from repro.sim.engine import Simulator
from repro.sim.tracing import TraceLog
from tests.conftest import FakeBufferHost

T = 40.0
SEQS = st.integers(min_value=1, max_value=8)
#: Multiples of 5 ms, so steps land exactly on deadlines now and then.
STEPS = st.integers(min_value=0, max_value=30).map(lambda k: 5.0 * k)


def msg(seq: int) -> DataMessage:
    return DataMessage(seq=seq, sender=0)


class OneClockMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.sim = Simulator()
        self.host = FakeBufferHost(self.sim, TraceLog(), region_size=2)
        self.policy = TwoPhaseBufferPolicy(idle_threshold=T)
        self.ttl: Optional[float] = None
        #: Model: seq -> (long_term, due), insertion-ordered like the buffer.
        self.model: Dict[int, Tuple[bool, Optional[float]]] = {}

    @initialize(c=st.sampled_from([0.0, 1.0, 2.0]),
                ttl=st.sampled_from([None, 25.0, 100.0]))
    def bind(self, c: float, ttl: Optional[float]) -> None:
        self.ttl = ttl
        self.policy = TwoPhaseBufferPolicy(idle_threshold=T, long_term_c=c, long_term_ttl=ttl)
        self.policy.bind(self.host)

    def _ttl_due(self, now: float) -> Optional[float]:
        return None if self.ttl is None else now + self.ttl

    @rule(seq=SEQS)
    def receive(self, seq: int) -> None:
        self.policy.on_receive(msg(seq))
        if seq not in self.model:
            self.model[seq] = (False, self.sim.now + T)

    @rule(seq=SEQS)
    def request(self, seq: int) -> None:
        body = self.policy.on_request(seq)
        assert (body is None) == (seq not in self.model)
        if seq in self.model:
            long_term, _due = self.model[seq]
            now = self.sim.now
            self.model[seq] = (long_term, self._ttl_due(now) if long_term else now + T)

    @rule(seq=SEQS)
    def serve(self, seq: int) -> None:
        self.policy.on_serve(seq)
        if seq in self.model and self.model[seq][0]:
            self.model[seq] = (True, self._ttl_due(self.sim.now))

    @rule(seq=SEQS)
    def handoff_in(self, seq: int) -> None:
        self.policy.accept_handoff(msg(seq))
        self.model[seq] = (True, self._ttl_due(self.sim.now))

    @rule()
    def drain(self) -> None:
        drained = [data.seq for data in self.policy.drain_for_handoff()]
        expected = [seq for seq, (long_term, _due) in self.model.items() if long_term]
        assert drained == expected
        for seq in expected:
            del self.model[seq]

    @rule()
    def close(self) -> None:
        self.policy.close()
        self.model.clear()

    @rule(elapsed=STEPS)
    def advance(self, elapsed: float) -> None:
        target = self.sim.now + elapsed
        while True:
            due = [when for _flag, when in self.model.values()
                   if when is not None and when <= target]
            if not due:
                break
            when = min(due)
            self.sim.run(until=when)
            for seq in [seq for seq, (_flag, at) in self.model.items() if at == when]:
                self._clock_ran_out(seq, when)
        self.sim.run(until=target)

    def _clock_ran_out(self, seq: int, when: float) -> None:
        long_term, _due = self.model[seq]
        entry = self.policy.buffer.get(seq)
        if entry is None:  # discarded: by its TTL, or it lost the coin
            record = [record for record in self.policy.buffer.records if record.seq == seq][-1]
            assert record.reason == (DISCARD_TTL if long_term else DISCARD_IDLE)
            assert record.discard_time == when
            del self.model[seq]
        else:  # an idle copy that won the coin
            assert not long_term and entry.long_term
            self.model[seq] = (True, self._ttl_due(when))

    @invariant()
    def one_clock_per_copy(self) -> None:
        clocks = {seq: timer.deadline for seq, timer in self.policy._clocks.items()}
        expected = {seq: due for seq, (_flag, due) in self.model.items() if due is not None}
        assert clocks == expected

    @invariant()
    def buffer_matches_model(self) -> None:
        buffer = self.policy.buffer
        assert list(buffer.seqs()) == list(self.model)
        assert [buffer.get(seq).long_term for seq in self.model] == [
            long_term for long_term, _due in self.model.values()
        ]
        expected_long_term = [seq for seq, (flag, _due) in self.model.items() if flag]
        assert list(buffer.long_term_seqs()) == expected_long_term
        assert buffer.long_term_count == len(expected_long_term)


TestOneClockMachine = OneClockMachine.TestCase
#: Examples come from the active profile (CI runs it under ``ci``).
TestOneClockMachine.settings = settings(stateful_step_count=40, deadline=None)
