"""The two-phase buffer policy — the paper's primary contribution (§3).

:class:`TwoPhaseBufferPolicy` gives each received copy one life:

1. every received message is buffered short-term and its idle clock
   armed;
2. every observed request for a buffered message pushes that clock back
   to ``now + T`` (§3.1's feedback);
3. when the clock runs out (no request for ``T`` ms), the member flips
   a coin with probability ``C/n`` (:func:`repro.core.long_term.keeps_long_term`):
   heads → the copy is promoted to long-term and the same clock becomes
   its TTL (none when ``long_term_ttl`` is ``None``), tails → discarded;
4. on graceful leave, long-term entries are handed to random peers
   (:meth:`drain_for_handoff`, used by the member's leave path).

Why the idle rule works (§3.1): in a region of *n* members where a
fraction *p* misses the message, each missing member sends one
uniformly-random local request per round, so the probability that a
particular holder receives *no* request in a round is
``(1 - 1/(n-1))^{np} ≈ e^{-p}`` — silence decays exponentially in the
number of members still missing the message.  The closed form lives in
:func:`repro.analysis.formulas.prob_no_request`; this module implements
the mechanism.

Every member buffers every message it receives, so a copy's life is the
protocol's innermost loop.  It is kept flat: the policy reads its bound
host and ``buffer.by_seq`` directly, arms a fresh copy's idle clock in
one call (:func:`repro.sim.timers.started`), the clock's batch runs
:meth:`TwoPhaseBufferPolicy._on_clock` itself, and the coin reads the
region's size in one frame
(:meth:`repro.protocol.member.RrmpMember.region_size`).

Trace records emitted (consumed by experiments and tests):

* ``buffer_idle`` — a message went idle at a member;
* ``long_term_selected`` — the coin flip kept it;
* ``buffer_discard`` — an entry left the buffer (fields: ``reason``,
  ``duration``, ``was_long_term``).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

from repro.core.buffer import (
    DISCARD_HANDOFF,
    DISCARD_IDLE,
    DISCARD_TTL,
)
from repro.core.long_term import keeps_long_term
from repro.core.policies import BufferPolicy
from repro.protocol.messages import DataMessage, Seq
from repro.sim.timers import Timer, started


class TwoPhaseBufferPolicy(BufferPolicy):
    """Feedback-based short-term + randomized long-term buffering.

    Each buffered copy has at most one :class:`~repro.sim.timers.Timer`: its
    idle clock while short-term, its TTL while long-term.  Parameters
    are the ``idle_threshold``, ``c`` and ``long_term_ttl`` of
    :class:`repro.protocol.config.PolicySpec`; a member given no policy
    builds this one from its config.
    """

    def __init__(
        self,
        idle_threshold: float = 40.0,
        long_term_c: float = 6.0,
        long_term_ttl: Optional[float] = None,
    ) -> None:
        super().__init__()
        if not 0 < idle_threshold < math.inf:
            raise ValueError(f"idle_threshold must be finite and > 0, got {idle_threshold!r}")
        if not 0 <= long_term_c < math.inf:
            raise ValueError(f"long_term_c must be finite and >= 0, got {long_term_c!r}")
        if long_term_ttl is not None and not 0 < long_term_ttl < math.inf:
            raise ValueError(
                f"long_term_ttl must be finite and > 0 or None, got {long_term_ttl!r}"
            )
        self.idle_threshold = idle_threshold
        self.long_term_c = long_term_c
        self.long_term_ttl = long_term_ttl
        #: seq -> the copy's one clock (idle deadline or TTL).
        self._clocks: Dict[Seq, Timer] = {}
        #: The coin's stream, asked for by the first coin that may draw.
        self._rng: Optional[random.Random] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        for timer in self._clocks.values():
            timer.cancel()
        self._clocks.clear()
        super().close()

    # ------------------------------------------------------------------
    # Protocol callbacks
    # ------------------------------------------------------------------
    def on_receive(self, data: DataMessage) -> None:
        seq = data.seq
        if seq in self.buffer.by_seq:
            return
        host = self._host or self.host  # the property raises before bind()
        sim = host.sim
        now = sim.now
        self.buffer.add(data, now)
        self._clocks[seq] = started(sim, self.idle_threshold, self._on_clock, seq)
        if host.trace.enabled:
            host.trace.emit(now, "buffer_add", node=host.node_id, seq=seq)

    def on_request(self, seq: Seq) -> Optional[DataMessage]:
        entry = self.buffer.by_seq.get(seq)
        if entry is None:
            return None
        timer = self._clocks.get(seq)
        if timer is not None:
            timer.start(self.long_term_ttl if entry.long_term else self.idle_threshold)
        return entry.data

    def on_serve(self, seq: Seq) -> None:
        entry = self.buffer.by_seq.get(seq)
        if entry is not None and entry.long_term:
            self._arm_ttl(seq)

    # ------------------------------------------------------------------
    # Long-term handoff (§3.2)
    # ------------------------------------------------------------------
    def drain_for_handoff(self) -> List[DataMessage]:
        """Remove and return long-term entries for transfer on leave."""
        now = self.host.sim.now
        transferred: List[DataMessage] = []
        for seq in self.buffer.long_term_seqs():
            entry = self.buffer.discard(seq, now, DISCARD_HANDOFF)
            if entry is None:
                continue
            timer = self._clocks.pop(seq, None)
            if timer is not None:
                timer.cancel()
            transferred.append(entry.data)
            self._emit_discard(seq, now, DISCARD_HANDOFF, was_long_term=True,
                               duration=now - entry.receive_time)
        return transferred

    def accept_handoff(self, data: DataMessage) -> None:
        """Install a message received via handoff directly as long-term.

        An already-buffered copy is promoted in place, since the
        leaver's long-term responsibility transfers to us.  Only a
        short-term copy cancels its clock (the idle deadline) before the
        TTL starts; a long-term copy's armed TTL is restarted as is,
        which a :class:`~repro.sim.timers.Timer` does by pushing it back in place.
        """
        seq = data.seq
        host = self.host
        now = host.sim.now
        entry = self.buffer.get(seq)
        if entry is None:
            self.buffer.add(data, now, long_term=True)
            host.trace.emit(now, "buffer_add", node=host.node_id, seq=seq)
        elif not entry.long_term:
            self._clocks[seq].cancel()
            entry.long_term = True
        self._arm_ttl(seq)
        host.trace.emit(now, "long_term_selected", node=host.node_id, seq=seq, via="handoff")

    # ------------------------------------------------------------------
    # Internal transitions
    # ------------------------------------------------------------------
    def _arm_ttl(self, seq: Seq) -> None:
        """Turn the long-term copy *seq*'s clock into its TTL: start it,
        or push it back if armed; without a TTL the copy has no clock."""
        ttl = self.long_term_ttl
        if ttl is None:
            self._clocks.pop(seq, None)
            return
        timer = self._clocks.get(seq)
        if timer is None:
            timer = self._clocks[seq] = Timer(self.host.sim, self._on_clock, seq)
        timer.start(ttl)

    def _on_clock(self, seq: Seq) -> None:
        """The copy's clock ran out; its phase says which one it was."""
        host = self._host or self.host
        now = host.sim.now
        entry = self.buffer.by_seq.get(seq)
        if entry is None:  # pragma: no cover - defensive
            return
        if entry.long_term:
            del self._clocks[seq]
            self.buffer.discard(seq, now, DISCARD_TTL)
            self._emit_discard(seq, now, DISCARD_TTL, was_long_term=True,
                               duration=now - entry.receive_time)
            return
        trace = host.trace
        if trace.enabled:
            trace.emit(now, "buffer_idle", node=host.node_id, seq=seq)
        c, n = self.long_term_c, host.region_size()
        rng = self._rng
        if rng is None and 0 < c < n:
            # The first coin that may draw (0 < C/n < 1) asks for it.
            rng = self._rng = host.policy_rng("long-term")
        if keeps_long_term(rng, c, n):
            entry.long_term = True
            self._arm_ttl(seq)
            if trace.enabled:
                trace.emit(now, "long_term_selected", node=host.node_id,
                           seq=seq, via="coin-flip")
        else:
            del self._clocks[seq]
            self.buffer.discard(seq, now, DISCARD_IDLE)
            if trace.enabled:
                self._emit_discard(seq, now, DISCARD_IDLE, was_long_term=False,
                                   duration=now - entry.receive_time)

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
