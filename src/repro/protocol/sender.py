"""The RRMP sender.

RRMP targets single-sender multicast applications (§2).  The sender is
itself a group member ("The sender joins the multicast group before it
starts sending messages, and consequently is also a receiver"), so
:class:`RrmpSender` wraps an :class:`~repro.protocol.member.RrmpMember`
and adds:

* sequence-numbered multicasts whose per-receiver outcome is drawn from
  a :class:`~repro.net.ipmulticast.MulticastOutcome` model (the
  documented substitution for real IP multicast);
* periodic session messages advertising the highest sequence number, so
  receivers can detect the loss of the last message in a burst (§2.1);
* the sender half of the FEC repair subsystem (:mod:`repro.fec`): data
  messages are grouped into blocks of ``FecSpec.block_size`` and each
  block's ``FecSpec.parity`` parity messages are multicast either as the
  block fills (proactive) or on the first retransmission request the
  sender observes for the block (reactive).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.fec.encoder import FecEncoder
from repro.net.ipmulticast import MulticastOutcome, PerfectOutcome
from repro.net.topology import NodeId
from repro.protocol.config import FEC_PROACTIVE, FEC_REACTIVE
from repro.protocol.member import RrmpMember
from repro.protocol.messages import (
    DATA_WIRE_SIZE,
    DataMessage,
    ParityMessage,
    Seq,
    SessionMessage,
)
from repro.sim.timers import PeriodicTask


class RrmpSender:
    """Multicast source for one RRMP session."""

    def __init__(
        self,
        member: RrmpMember,
        outcome: Optional[MulticastOutcome] = None,
    ) -> None:
        self.member = member
        self.outcome = outcome if outcome is not None else PerfectOutcome()
        self.next_seq: Seq = 1
        # Both streams are built by their first draw: a run without FEC
        # never builds the parity one.
        self._rng = member.streams.lazy("sender", member.node_id, "outcome")
        #: Separate substream for parity outcomes so enabling FEC does
        #: not perturb the data-loss pattern of an equally-seeded run —
        #: FEC mode sweeps stay sample-path comparable.
        self._parity_rng = member.streams.lazy("sender", member.node_id, "parity-outcome")
        self._session_task: Optional[PeriodicTask] = None
        interval = member.config.session_interval
        if interval is not None:
            self._session_task = PeriodicTask(member.sim, interval, self._send_session)
            self._session_task.start()
        self.fec: Optional[FecEncoder] = None
        fec_spec = member.fec_spec
        if fec_spec.enabled:
            self.fec = FecEncoder(
                block_size=fec_spec.block_size,
                parity=fec_spec.parity,
                sender=member.node_id,
            )
            if fec_spec.mode == FEC_REACTIVE:
                member.repair_interest_hook = self._on_repair_interest

    @property
    def node_id(self) -> NodeId:
        """The sender's member id."""
        return self.member.node_id

    @property
    def max_seq(self) -> Seq:
        """Highest sequence number multicast so far (0 before any send)."""
        return self.next_seq - 1

    def group(self) -> Sequence[NodeId]:
        """The full multicast group (every node in the hierarchy)."""
        return self.member.hierarchy.nodes

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def multicast(self, payload: Any = None) -> Optional[DataMessage]:
        """Multicast the next message; returns the DataMessage sent.

        The outcome model picks which receivers the unreliable IP
        multicast reaches; everyone else must recover the loss.  The
        sender always holds its own message.  A sender that left or
        crashed has ended the session: it sends nothing and returns
        ``None``.
        """
        member = self.member
        if not member.alive:
            return None
        me = member.node_id
        data = DataMessage(seq=self.next_seq, sender=me, payload=payload)
        self.next_seq += 1
        group = list(self.group())
        holders = set(self.outcome.holders(data.seq, group, self._rng))
        holders.add(me)
        member.trace.emit(
            member.sim.now,
            "message_sent",
            seq=data.seq,
            holders=len(holders),
            group=len(group),
        )
        # The sender delivers to itself directly; remote holders get the
        # message through the network (per-receiver latency).
        member.inject_receive(data, via="multicast")
        # The network leaves the sender out of its own multicast.
        targets = [node for node in group if node in holders]
        member.network.multicast(me, targets, data, group="session")
        if self.fec is not None:
            completed_block = self.fec.add(data)
            if (
                completed_block is not None
                and self.member.fec_spec.mode == FEC_PROACTIVE
            ):
                self._emit_parity(completed_block, trigger="proactive")
        return data

    # ------------------------------------------------------------------
    # FEC parity emission
    # ------------------------------------------------------------------
    def flush_parity(self) -> List[ParityMessage]:
        """Seal the current partial block and emit *its* parity.

        Call at the end of a burst or session so a tail block shorter
        than ``FecSpec.block_size`` is still protected.  Only the tail
        block is touched: in reactive mode, earlier sealed blocks keep
        waiting for an observed request (bulk-encoding them here would
        silently turn reactive into proactive-at-the-end).  No-op
        (empty list) when FEC is off or no partial block is pending.
        """
        if self.fec is None:
            return []
        block_id = self.fec.flush()
        if block_id is None:
            return []
        return self._emit_parity(block_id, trigger="flush")

    def _on_repair_interest(self, seq: Seq) -> None:
        """Reactive mode: a request the sender observed names *seq*."""
        if self.fec is None:
            return
        block_id = self.fec.block_containing(seq)
        if block_id is None or self.fec.is_encoded(block_id):
            return
        self._emit_parity(block_id, trigger="reactive")

    def _emit_parity(self, block_id: int, trigger: str) -> List[ParityMessage]:
        """Encode one block and multicast its parity through the outcome
        model; a departed sender emits nothing."""
        assert self.fec is not None
        if not self.member.alive:
            return []
        parities = self.fec.encode_block(block_id)
        if not parities:
            return []
        first = parities[0]
        self.member.trace.emit(
            self.member.sim.now,
            "fec_encode",
            block=block_id,
            k=len(first.block_seqs),
            r=first.r,
            trigger=trigger,
        )
        self.member.trace.emit(
            self.member.sim.now,
            "fec_parity_overhead",
            block=block_id,
            parity_messages=len(parities),
            parity_bytes=sum(parity.wire_size for parity in parities),
            data_bytes=len(first.block_seqs) * DATA_WIRE_SIZE,
        )
        group, me = list(self.group()), self.node_id
        for parity in parities:
            self.member.inject_parity(parity)
            holders = set(self.outcome.holders(parity.seq, group, self._parity_rng))
            targets = [node for node in group if node in holders]
            self.member.network.multicast(me, targets, parity, group="session")
        return parities

    # ------------------------------------------------------------------
    # Session messages
    # ------------------------------------------------------------------
    def _send_session(self) -> None:
        if self.max_seq < 1 or not self.member.alive:
            return
        me = self.node_id
        message = SessionMessage(sender=me, max_seq=self.max_seq)
        self.member.network.multicast(me, self.group(), message, group="session")

    def stop(self) -> None:
        """Stop session messages (end of session)."""
        if self._session_task is not None:
            self._session_task.stop()
