"""Per-member message buffer storage.

:class:`MessageBuffer` is the passive store that buffer-management
policies (two-phase, fixed-time, stability-based, …) operate on.  It
tracks, per message, when it was received, when the last request for it
arrived, and whether it has been promoted to long-term; and it keeps a
log of :class:`BufferRecord` entries describing every discard, which is
what the Figure 6 experiment aggregates into "average buffering time".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Set

from repro.protocol.messages import DataMessage, Seq


@dataclass(slots=True)
class BufferEntry:
    """Live state of one buffered message at one member.

    ``long_term`` is read-only outside :class:`MessageBuffer`: flipping
    it directly would desynchronize the buffer's long-term index — use
    :meth:`MessageBuffer.promote` / :meth:`MessageBuffer.demote`.
    """

    seq: Seq
    data: DataMessage
    receive_time: float
    last_request_time: Optional[float] = None
    long_term: bool = False
    #: Time of the most recent event that counts as a "use" (receipt,
    #: request, or serving a repair); drives the long-term TTL.
    #: :meth:`MessageBuffer.add` starts it at the receive time.
    last_use_time: float = 0.0
    #: Monotonic admission rank assigned by :meth:`MessageBuffer.add`;
    #: orders :meth:`MessageBuffer.long_term_seqs` by insertion.
    order: int = 0


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
        #: Lazily-maintained index of long-term seqs, so policy
        #: decisions and handoff planning never scan every entry.
        self._long_term: Set[Seq] = set()
        self._next_order = 0

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
        """Sequence numbers of entries promoted to long-term.

        Ordered by buffer insertion (matching :meth:`seqs`); costs
        O(k log k) in the number of *long-term* entries, not O(n) in
        the buffer size.
        """
        entries = self._entries
        return tuple(sorted(self._long_term, key=lambda seq: entries[seq].order))

    def is_long_term(self, seq: Seq) -> bool:
        """Whether *seq* is buffered long-term.  O(1)."""
        return seq in self._long_term

    @property
    def long_term_count(self) -> int:
        """Number of long-term entries.  O(1)."""
        return len(self._long_term)

    def check_index(self) -> List[str]:
        """Internal-consistency problems between entries and the
        long-term index (empty when the buffer is healthy).

        O(n); meant for the invariant oracle's end-of-run sweep and the
        property tests, not for protocol hot paths.
        """
        problems: List[str] = []
        for seq, entry in self._entries.items():
            if entry.long_term and seq not in self._long_term:
                problems.append(f"entry {seq} flagged long_term but missing from index")
            if not entry.long_term and seq in self._long_term:
                problems.append(f"entry {seq} in long-term index but not flagged")
            if entry.order > self._next_order:
                problems.append(f"entry {seq} order {entry.order} beyond watermark")
        for seq in self._long_term:
            if seq not in self._entries:
                problems.append(f"long-term index holds discarded seq {seq}")
        orders = [entry.order for entry in self._entries.values()]
        if len(set(orders)) != len(orders):
            problems.append("duplicate admission ranks")
        return problems

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, data: DataMessage, now: float, long_term: bool = False) -> BufferEntry:
        """Store *data*; returns the new (or existing) entry."""
        existing = self._entries.get(data.seq)
        if existing is not None:
            return existing
        self._next_order += 1
        entry = BufferEntry(data.seq, data, now, None, long_term, now, self._next_order)
        self._entries[data.seq] = entry
        if long_term:
            self._long_term.add(data.seq)
        return entry

    def promote(self, seq: Seq) -> Optional[BufferEntry]:
        """Mark *seq* long-term, keeping the index in sync.  O(1).

        Returns the entry, or ``None`` if *seq* is not buffered.
        """
        entry = self._entries.get(seq)
        if entry is None:
            return None
        entry.long_term = True
        self._long_term.add(seq)
        return entry

    def demote(self, seq: Seq) -> Optional[BufferEntry]:
        """Clear the long-term mark on *seq*.  O(1)."""
        entry = self._entries.get(seq)
        if entry is None:
            return None
        entry.long_term = False
        self._long_term.discard(seq)
        return entry

    def discard(self, seq: Seq, now: float, reason: str) -> Optional[BufferEntry]:
        """Remove *seq*, recording a :class:`BufferRecord`.

        Returns the removed entry, or ``None`` if it was not buffered.
        """
        entry = self._entries.pop(seq, None)
        if entry is None:
            return None
        self._long_term.discard(seq)
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
