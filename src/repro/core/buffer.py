"""Per-member message buffer storage.

:class:`MessageBuffer` is the passive store that buffer-management
policies (two-phase, fixed-time, stability-based, …) operate on.  It
tracks, per message, when it was received and whether it has been
promoted to long-term; and it keeps a log of every discard, which is
what the Figure 6 experiment aggregates into "average buffering time".

The discard log is columnar: one ``array`` each of seqs, receive times
and discard times, and one byte per record for the reason and the
long-term flag.  A discard costs 25 bytes and no Python object, so a
member's log grows by bytes with the stream, not by tuples;
:attr:`MessageBuffer.records` builds the :class:`BufferRecord` list on
demand.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

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

#: Every discard reason.  A log entry's code is the reason's index
#: shifted left by one, plus one if the copy was long-term.
DISCARD_REASONS = (DISCARD_IDLE, DISCARD_TTL, DISCARD_FIXED, DISCARD_STABLE,
                   DISCARD_HANDOFF, DISCARD_CLOSE)
_REASON_INDEX = {reason: index for index, reason in enumerate(DISCARD_REASONS)}


class MessageBuffer:
    """Message store with discard accounting.

    The buffer never decides *when* to discard — that is the policy's
    job — but it centralizes the bookkeeping every policy needs.
    """

    def __init__(self) -> None:
        #: seq → live entry.  Read it freely (a request's lookup is one
        #: dict read); change it only through the methods.
        self.by_seq: Dict[Seq, BufferEntry] = {}
        #: The discard log's columns (seqs, receive times, discard times,
        #: codes), built on the first discard: most members of a short
        #: run never discard.
        self._log: Optional[Tuple[array, array, array, array]] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, seq: Seq) -> bool:
        return seq in self.by_seq

    def __len__(self) -> int:
        return len(self.by_seq)

    @property
    def occupancy(self) -> int:
        """Number of messages currently buffered."""
        return len(self.by_seq)

    def get(self, seq: Seq) -> Optional[BufferEntry]:
        """The live entry for *seq*, or ``None``."""
        return self.by_seq.get(seq)

    def data(self, seq: Seq) -> Optional[DataMessage]:
        """The stored message body for *seq*, or ``None``."""
        entry = self.by_seq.get(seq)
        return entry.data if entry is not None else None

    def seqs(self) -> Iterable[Seq]:
        """Sequence numbers currently buffered (insertion order)."""
        return tuple(self.by_seq.keys())

    def entries(self) -> Iterable[BufferEntry]:
        """Live entries (insertion order)."""
        return tuple(self.by_seq.values())

    def long_term_seqs(self) -> Iterable[Seq]:
        """Sequence numbers of entries promoted to long-term, in
        admission order: a seq is re-added only after its discard, so
        the dict's insertion order is the order copies were buffered."""
        return tuple(seq for seq, entry in self.by_seq.items() if entry.long_term)

    @property
    def long_term_count(self) -> int:
        """Number of long-term entries.  O(n): read at probes and at the
        end of a run, never per packet."""
        return sum(entry.long_term for entry in self.by_seq.values())

    @property
    def records(self) -> List[BufferRecord]:
        """Every completed buffering episode, in discard order: a fresh
        list built from the columnar log on each read."""
        if self._log is None:
            return []
        return [
            BufferRecord(seq, received, discarded, DISCARD_REASONS[code >> 1], bool(code & 1))
            for seq, received, discarded, code in zip(*self._log)
        ]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, data: DataMessage, now: float, long_term: bool = False) -> BufferEntry:
        """Store *data*; returns the new (or existing) entry."""
        existing = self.by_seq.get(data.seq)
        if existing is not None:
            return existing
        entry = BufferEntry(data.seq, data, now, long_term)
        self.by_seq[data.seq] = entry
        return entry

    def promote(self, seq: Seq) -> Optional[BufferEntry]:
        """Mark *seq* long-term.  Returns the entry, or ``None`` if
        *seq* is not buffered."""
        entry = self.by_seq.get(seq)
        if entry is None:
            return None
        entry.long_term = True
        return entry

    def discard(self, seq: Seq, now: float, reason: str) -> Optional[BufferEntry]:
        """Remove *seq*, logging the episode; *reason* is one of
        :data:`DISCARD_REASONS`.

        Returns the removed entry, or ``None`` if it was not buffered.
        """
        entry = self.by_seq.pop(seq, None)
        if entry is None:
            return None
        log = self._log
        if log is None:
            log = self._log = (array("q"), array("d"), array("d"), array("B"))
        seqs, received, discarded, codes = log
        seqs.append(seq)
        received.append(entry.receive_time)
        discarded.append(now)
        codes.append(_REASON_INDEX[reason] << 1 | entry.long_term)
        return entry

    def discard_all(self, now: float, reason: str = DISCARD_CLOSE) -> List[BufferEntry]:
        """Remove every entry (member shutdown); returns removed entries."""
        removed = []
        for seq in list(self.by_seq.keys()):
            entry = self.discard(seq, now, reason)
            if entry is not None:
                removed.append(entry)
        return removed

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def durations(self, reason: Optional[str] = None) -> List[float]:
        """Buffering durations of completed episodes, optionally by reason."""
        if self._log is None:
            return []
        _, received, discarded, codes = self._log
        if reason is None:
            return [end - start for start, end in zip(received, discarded)]
        index = _REASON_INDEX.get(reason)
        return [end - start for start, end, code in zip(received, discarded, codes)
                if code >> 1 == index]
