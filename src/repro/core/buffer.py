"""Per-member message buffer storage.

:class:`MessageBuffer` is the passive store that buffer-management
policies (two-phase, fixed-time, stability-based, …) operate on.  It
tracks, per message, when it was received and whether it has been
promoted to long-term; and it keeps a log of :class:`BufferRecord`
entries describing every discard, which is what the Figure 6
experiment aggregates into "average buffering time".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.protocol.messages import DataMessage, Seq


@dataclass(slots=True)
class BufferEntry:
    """Live state of one buffered message at one member.

    The policy owns the copy's clock (idle deadline or TTL); the entry
    holds only what the buffer itself reports.
    """

    seq: Seq
    data: DataMessage
    receive_time: float
    long_term: bool = False


class BufferRecord(NamedTuple):
    """One completed buffering episode (message added then discarded)."""

    seq: Seq
    receive_time: float
    discard_time: float
    reason: str
    was_long_term: bool

    @property
    def duration(self) -> float:
        """How long the message occupied the buffer, in ms."""
        return self.discard_time - self.receive_time


#: Discard reasons recorded in :class:`BufferRecord`.
DISCARD_IDLE = "idle"            # went idle, lost the long-term coin flip
DISCARD_TTL = "long-term-ttl"    # long-term entry expired unused
DISCARD_FIXED = "fixed-timeout"  # fixed-time policy expiry
DISCARD_STABLE = "stable"        # stability detector declared it stable
DISCARD_HANDOFF = "handoff"      # transferred to another member on leave
DISCARD_CLOSE = "close"          # simulation/member shutdown


class MessageBuffer:
    """Message store with discard accounting.

    The buffer never decides *when* to discard — that is the policy's
    job — but it centralizes the bookkeeping every policy needs.
    """

    def __init__(self) -> None:
        self._entries: Dict[Seq, BufferEntry] = {}
        self.records: List[BufferRecord] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, seq: Seq) -> bool:
        return seq in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def occupancy(self) -> int:
        """Number of messages currently buffered."""
        return len(self._entries)

    def get(self, seq: Seq) -> Optional[BufferEntry]:
        """The live entry for *seq*, or ``None``."""
        return self._entries.get(seq)

    def data(self, seq: Seq) -> Optional[DataMessage]:
        """The stored message body for *seq*, or ``None``."""
        entry = self._entries.get(seq)
        return entry.data if entry is not None else None

    def seqs(self) -> Iterable[Seq]:
        """Sequence numbers currently buffered (insertion order)."""
        return tuple(self._entries.keys())

    def entries(self) -> Iterable[BufferEntry]:
        """Live entries (insertion order)."""
        return tuple(self._entries.values())

    def long_term_seqs(self) -> Iterable[Seq]:
        """Sequence numbers of entries promoted to long-term, in
        admission order: a seq is re-added only after its discard, so
        the dict's insertion order is the order copies were buffered."""
        return tuple(seq for seq, entry in self._entries.items() if entry.long_term)

    @property
    def long_term_count(self) -> int:
        """Number of long-term entries.  O(n): read at probes and at the
        end of a run, never per packet."""
        return sum(entry.long_term for entry in self._entries.values())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, data: DataMessage, now: float, long_term: bool = False) -> BufferEntry:
        """Store *data*; returns the new (or existing) entry."""
        existing = self._entries.get(data.seq)
        if existing is not None:
            return existing
        entry = BufferEntry(data.seq, data, now, long_term)
        self._entries[data.seq] = entry
        return entry

    def promote(self, seq: Seq) -> Optional[BufferEntry]:
        """Mark *seq* long-term.  Returns the entry, or ``None`` if
        *seq* is not buffered."""
        entry = self._entries.get(seq)
        if entry is None:
            return None
        entry.long_term = True
        return entry

    def discard(self, seq: Seq, now: float, reason: str) -> Optional[BufferEntry]:
        """Remove *seq*, recording a :class:`BufferRecord`.

        Returns the removed entry, or ``None`` if it was not buffered.
        """
        entry = self._entries.pop(seq, None)
        if entry is None:
            return None
        self.records.append(
            BufferRecord(seq, entry.receive_time, now, reason, entry.long_term)
        )
        return entry

    def discard_all(self, now: float, reason: str = DISCARD_CLOSE) -> List[BufferEntry]:
        """Remove every entry (member shutdown); returns removed entries."""
        removed = []
        for seq in list(self._entries.keys()):
            entry = self.discard(seq, now, reason)
            if entry is not None:
                removed.append(entry)
        return removed

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def durations(self, reason: Optional[str] = None) -> List[float]:
        """Buffering durations of completed episodes, optionally by reason."""
        return [
            record.duration
            for record in self.records
            if reason is None or record.reason == reason
        ]
