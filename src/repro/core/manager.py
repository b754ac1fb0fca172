"""The two-phase buffer policy — the paper's primary contribution (§3).

:class:`TwoPhaseBufferPolicy` composes the feedback-based short-term
stage (:mod:`repro.core.short_term`) with the randomized long-term stage
(:mod:`repro.core.long_term`):

1. every received message is buffered and its idle timer armed;
2. every observed request for a buffered message refreshes that timer;
3. when the timer fires (no request for ``T`` ms), the member flips a
   coin with probability ``C/n``: heads → the entry is promoted to
   long-term (kept until the optional TTL), tails → discarded;
4. on graceful leave, long-term entries are handed to random peers
   (:meth:`drain_for_handoff`, used by the member's leave path).

Trace records emitted (consumed by experiments and tests):

* ``buffer_idle`` — a message went idle at a member;
* ``long_term_selected`` — the coin flip kept it;
* ``buffer_discard`` — an entry left the buffer (fields: ``reason``,
  ``duration``, ``was_long_term``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.buffer import (
    DISCARD_HANDOFF,
    DISCARD_IDLE,
    DISCARD_TTL,
)
from repro.core.long_term import RandomizedLongTermSelector
from repro.core.policies import BufferHost, BufferPolicy
from repro.core.short_term import FeedbackIdleTracker
from repro.protocol.messages import DataMessage, Seq


class TwoPhaseBufferPolicy(BufferPolicy):
    """Feedback-based short-term + randomized long-term buffering.

    Parameters mirror :class:`repro.protocol.config.RrmpConfig`; the
    policy is usually built via
    :func:`repro.protocol.rrmp.two_phase_policy_factory` so both share
    one config object.
    """

    def __init__(
        self,
        idle_threshold: float = 40.0,
        long_term_c: float = 6.0,
        long_term_ttl: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.idle_threshold = idle_threshold
        self.long_term_c = long_term_c
        self.long_term_ttl = long_term_ttl
        self._short_term: Optional[FeedbackIdleTracker] = None
        self._long_term: Optional[RandomizedLongTermSelector] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, host: BufferHost) -> None:
        super().bind(host)
        self._short_term = FeedbackIdleTracker(
            host.sim, self.idle_threshold, on_idle=self._on_idle
        )
        self._long_term = RandomizedLongTermSelector(
            host.sim,
            host.policy_rng("long-term"),
            expected_bufferers=self.long_term_c,
            ttl=self.long_term_ttl,
            on_expire=self._on_ttl_expired,
        )

    @property
    def short_term(self) -> FeedbackIdleTracker:
        """The idle tracker (raises before :meth:`bind`)."""
        if self._short_term is None:
            raise RuntimeError("TwoPhaseBufferPolicy used before bind()")
        return self._short_term

    @property
    def long_term(self) -> RandomizedLongTermSelector:
        """The long-term selector (raises before :meth:`bind`)."""
        if self._long_term is None:
            raise RuntimeError("TwoPhaseBufferPolicy used before bind()")
        return self._long_term

    def close(self) -> None:
        self.short_term.close()
        self.long_term.close()
        super().close()

    # ------------------------------------------------------------------
    # Protocol callbacks
    # ------------------------------------------------------------------
    def on_receive(self, data: DataMessage) -> None:
        if data.seq in self.buffer:
            return
        host = self.host
        now = host.sim.now
        self.buffer.add(data, now)
        self.short_term.track(data.seq)
        if host.trace.enabled:
            host.trace.emit(now, "buffer_add", node=host.node_id, seq=data.seq)

    def on_request(self, seq: Seq) -> None:
        entry = self.buffer.get(seq)
        if entry is None:
            return
        now = self.host.sim.now
        entry.last_request_time = now
        entry.last_use_time = now
        if entry.long_term:
            self.long_term.touch(seq)
        else:
            self.short_term.refresh(seq)

    def on_serve(self, seq: Seq) -> None:
        entry = self.buffer.get(seq)
        if entry is None:
            return
        entry.last_use_time = self.host.sim.now
        if entry.long_term:
            self.long_term.touch(seq)

    # ------------------------------------------------------------------
    # Long-term handoff (§3.2)
    # ------------------------------------------------------------------
    def drain_for_handoff(self) -> List[DataMessage]:
        """Remove and return long-term entries for transfer on leave."""
        now = self.host.sim.now
        transferred: List[DataMessage] = []
        for seq in list(self.buffer.long_term_seqs()):
            entry = self.buffer.discard(seq, now, DISCARD_HANDOFF)
            if entry is None:
                continue
            self.long_term.disarm(seq)
            transferred.append(entry.data)
            self._emit_discard(seq, now, DISCARD_HANDOFF, was_long_term=True,
                               duration=now - entry.receive_time)
        return transferred

    def accept_handoff(self, data: DataMessage) -> None:
        """Install a message received via handoff directly as long-term."""
        now = self.host.sim.now
        entry = self.buffer.get(data.seq)
        if entry is None:
            entry = self.buffer.add(data, now, long_term=True)
            self.host.trace.emit(now, "buffer_add", node=self.host.node_id, seq=data.seq)
        else:
            # Already buffered: promote, since the leaver's long-term
            # responsibility transfers to us.
            self.short_term.untrack(data.seq)
        self.buffer.promote(data.seq)
        entry.last_use_time = now
        self.long_term.arm_ttl(data.seq)
        self.host.trace.emit(
            now, "long_term_selected", node=self.host.node_id, seq=data.seq, via="handoff"
        )

    # ------------------------------------------------------------------
    # Internal transitions
    # ------------------------------------------------------------------
    def _on_idle(self, seq: Seq) -> None:
        host = self.host
        now = host.sim.now
        entry = self.buffer.get(seq)
        if entry is None:  # pragma: no cover - defensive
            return
        trace = host.trace
        if trace.enabled:
            trace.emit(now, "buffer_idle", node=host.node_id, seq=seq)
        if self.long_term.decide(host.region_size()):
            self.buffer.promote(seq)
            entry.last_use_time = now
            self.long_term.arm_ttl(seq)
            if trace.enabled:
                trace.emit(now, "long_term_selected", node=host.node_id,
                           seq=seq, via="coin-flip")
        else:
            removed = self.buffer.discard(seq, now, DISCARD_IDLE)
            if removed is not None and trace.enabled:
                self._emit_discard(seq, now, DISCARD_IDLE, was_long_term=False,
                                   duration=now - removed.receive_time)

    def _on_ttl_expired(self, seq: Seq) -> None:
        now = self.host.sim.now
        removed = self.buffer.discard(seq, now, DISCARD_TTL)
        if removed is not None:
            self._emit_discard(seq, now, DISCARD_TTL, was_long_term=True,
                               duration=now - removed.receive_time)

    def _emit_discard(
        self, seq: Seq, now: float, reason: str, was_long_term: bool, duration: float
    ) -> None:
        if not self.host.trace.enabled:
            return
        self.host.trace.emit(
            now,
            "buffer_discard",
            node=self.host.node_id,
            seq=seq,
            reason=reason,
            was_long_term=was_long_term,
            duration=duration,
        )
