"""Buffer-management policy interface and simple baseline policies.

A :class:`BufferPolicy` decides, for one member, which received
messages to keep and when to discard them.  The RRMP member calls into
its policy on every receipt and on every request, and consults it when
answering retransmission requests.  Swapping the policy — two-phase
(the paper's contribution), fixed-time (Bimodal Multicast), stability
detection, repair-server (RMTP-like) or deterministic hashing — is how
the comparison experiments are built.

The policy sees its member through the narrow :class:`BufferHost`
protocol, so policies are unit-testable without a protocol stack.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Optional, Protocol, Tuple

from repro.core.buffer import (
    DISCARD_CLOSE,
    DISCARD_FIXED,
    MessageBuffer,
)
from repro.protocol.messages import DataMessage, Seq
from repro.sim import Simulator, TraceLog


class BufferHost(Protocol):
    """What a buffer policy may ask of the member hosting it."""

    node_id: int
    sim: Simulator
    trace: TraceLog

    def region_size(self) -> int:
        """Current size *n* of the member's region (for P = C/n)."""
        ...

    def policy_rng(self, purpose: str) -> random.Random:
        """A deterministic RNG substream for the given purpose (asked
        for at ``bind``, maybe never drawn from: hand out a lazy one)."""
        ...


class BufferPolicy(ABC):
    """Decides which messages a member buffers, and for how long.

    Lifecycle: construct, :meth:`bind` to a host, then receive
    ``on_receive`` / ``on_request`` callbacks until :meth:`close`.
    """

    def __init__(self) -> None:
        self.buffer = MessageBuffer()
        self._host: Optional[BufferHost] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, host: BufferHost) -> None:
        """Attach the policy to its hosting member.  Called once."""
        self._host = host

    @property
    def host(self) -> BufferHost:
        """The hosting member (raises if :meth:`bind` was never called)."""
        if self._host is None:
            raise RuntimeError(f"{type(self).__name__} used before bind()")
        return self._host

    def close(self) -> None:
        """Release timers and drop all buffered state (member shutdown)."""
        self.buffer.discard_all(self.host.sim.now, DISCARD_CLOSE)

    # ------------------------------------------------------------------
    # Protocol callbacks
    # ------------------------------------------------------------------
    @abstractmethod
    def on_receive(self, data: DataMessage) -> None:
        """A new message arrived at the member (any path)."""

    def on_request(self, seq: Seq) -> Optional[DataMessage]:
        """A retransmission request for *seq* was observed (feedback).

        Returns the buffered body the member answers with, or ``None``:
        one lookup serves both the feedback and the answer.
        """
        return self.buffer.data(seq)

    def on_serve(self, seq: Seq) -> None:
        """The member served a repair for *seq* from this buffer."""

    # ------------------------------------------------------------------
    # Queries used by the member when answering requests
    # ------------------------------------------------------------------
    def has(self, seq: Seq) -> bool:
        """Whether *seq* is currently buffered."""
        return seq in self.buffer

    def get(self, seq: Seq) -> Optional[DataMessage]:
        """The buffered body for *seq*, or ``None``."""
        return self.buffer.data(seq)

    @property
    def occupancy(self) -> int:
        """Number of messages currently buffered."""
        return self.buffer.occupancy

    # ------------------------------------------------------------------
    # Leave-time handoff (§3.2)
    # ------------------------------------------------------------------
    def drain_for_handoff(self) -> List[DataMessage]:
        """Messages the member must hand to peers before leaving.

        Default: nothing (policies without a long-term responsibility
        can simply drop their buffers on leave).
        """
        return []


class NoBufferPolicy(BufferPolicy):
    """Buffers nothing — models SRM's transport level, which relies on
    the application (ALF) to regenerate data (§1).

    Used in tests and as a degenerate baseline: with this policy local
    recovery only succeeds against members that still hold the message
    for application reasons.
    """

    def on_receive(self, data: DataMessage) -> None:
        return None


class NeverDiscardPolicy(BufferPolicy):
    """Buffers every received message for the whole session.

    The conservative strawman from §1 ("have every member buffer a
    message until it has been received by all current members" — and
    beyond); also models an RMTP repair server's whole-file buffering
    when installed only on designated servers.
    """

    def on_receive(self, data: DataMessage) -> None:
        now = self.host.sim.now
        if data.seq in self.buffer:
            return
        self.buffer.add(data, now)
        self.host.trace.emit(now, "buffer_add", node=self.host.node_id, seq=data.seq)


class FixedTimePolicy(BufferPolicy):
    """Buffer each message for a fixed duration, then discard.

    The Bimodal Multicast baseline (§2: "the Bimodal Multicast protocol
    uses a simple buffering policy in which each member buffers messages
    for a fixed amount of time").  Insensitive to how many members still
    need the message — the contrast that motivates §3.1.
    """

    def __init__(self, hold_time: float) -> None:
        super().__init__()
        if hold_time <= 0:
            raise ValueError(f"hold_time must be > 0, got {hold_time!r}")
        self.hold_time = hold_time
        self._expiries: List[Tuple[Seq, object]] = []

    def on_receive(self, data: DataMessage) -> None:
        now = self.host.sim.now
        if data.seq in self.buffer:
            return
        self.buffer.add(data, now)
        self.host.trace.emit(now, "buffer_add", node=self.host.node_id, seq=data.seq)
        event = self.host.sim.after(self.hold_time, self._expire, data.seq)
        self._expiries.append((data.seq, event))

    def _expire(self, seq: Seq) -> None:
        entry = self.buffer.discard(seq, self.host.sim.now, DISCARD_FIXED)
        if entry is not None:
            self.host.trace.emit(
                self.host.sim.now,
                "buffer_discard",
                node=self.host.node_id,
                seq=seq,
                reason=DISCARD_FIXED,
                duration=self.host.sim.now - entry.receive_time,
            )

    def close(self) -> None:
        for _seq, event in self._expiries:
            event.cancel()  # type: ignore[attr-defined]
        self._expiries.clear()
        super().close()
