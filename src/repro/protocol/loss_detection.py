"""Loss detection: sequence-number gaps and session-message advertisements.

"A receiver detects a message loss by observing a gap in the sequence
number space.  In addition, session messages are used to help a
receiver detect the loss of the last message in a burst." (§2.1)

:class:`GapTracker` is the per-member detector.  It reports each
missing sequence number exactly once (the member then owns the recovery
process for it) and answers the "was *seq* received" question the
member consults for duplicate suppression and for the "received but
discarded" branch of remote-request handling (§3.3).

Its memory is O(holes), not O(stream): it keeps the highest seq
received (``top``) and the set of reported holes.  A seq is reported
before anything past it is received, and it leaves the reported set
only by being received, so every seq in ``[1, top]`` outside that set
was received.  A hole that is never filled (a give-up) stays one set
entry however long the stream runs.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set

from repro.protocol.messages import Seq


class GapTracker:
    """Tracks received sequence numbers and detects losses.

    Sequence numbers start at 1 and are dense: every seq in
    ``[1, highest]`` is expected.
    """

    #: Received seqs below 1.  Only a hostile peer sends one, so every
    #: tracker shares this empty set until its first such receipt.
    _stray: FrozenSet[Seq] = frozenset()

    def __init__(self) -> None:
        #: Highest seq received (0 before the first receipt).
        self.top: Seq = 0
        #: Highest seq this member has detected as expected: the largest
        #: seq advertised by a session message or request, or *one
        #: below* the largest seq received (a receipt of ``s`` moves it
        #: to ``s - 1``).  A member holding 1, 2, 4, 5 reads 4 here.
        self.highest: Seq = 0
        #: Number of distinct seqs received.
        self.received_count = 0
        self._reported: Set[Seq] = set()
        self._prefix: Seq = 0

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def on_receive(self, seq: Seq) -> List[Seq]:
        """Record receipt of *seq*; return newly-detected missing seqs.

        Receiving seq 5 when the highest previously seen was 2 reveals
        that 3 and 4 are missing (unless already received/reported).
        """
        top = self.top
        if seq > top:
            self.top = seq
            self.received_count += 1
            highest = self.highest
            if seq - 1 > highest:
                self.highest = seq - 1
                # Nothing above both marks was received or reported.
                start = (top if top > highest else highest) + 1
                if start < seq:
                    return self._report(start, seq)
            else:
                self._reported.discard(seq)
        elif seq > 0:
            if seq in self._reported:
                self._reported.remove(seq)
                self.received_count += 1
        elif seq not in self._stray:
            self._stray = self._stray | {seq}
            self.received_count += 1
        return []

    def on_advertise(self, max_seq: Seq) -> List[Seq]:
        """A session message (or request) advertised *max_seq*.

        Every unreceived seq up to *max_seq* becomes a detected loss;
        returns only the newly-detected ones.
        """
        highest = self.highest
        if max_seq <= highest:
            return []
        self.highest = max_seq
        return self._report(max(highest, self.top) + 1, max_seq + 1)

    def _report(self, start: Seq, end: Seq) -> List[Seq]:
        newly_missing = list(range(start, end))
        self._reported.update(newly_missing)
        return newly_missing

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_received(self, seq: Seq) -> bool:
        """Whether *seq* has ever been received."""
        if seq > 0:
            return seq <= self.top and seq not in self._reported
        return seq in self._stray

    def knows(self, seq: Seq) -> bool:
        """Whether *seq* was received or detected (advertised, or below a
        seq that was received or advertised)."""
        return seq <= self.highest or seq <= self.top

    def missing(self) -> List[Seq]:
        """Currently-known missing seqs, in order."""
        return sorted(self._reported)

    def contiguous_prefix(self) -> Seq:
        """Largest seq such that every message up to it has been received.

        This is the *low watermark* the stability-detection baseline
        gossips: a message is stable once it is below every member's
        watermark.  Returns 0 when nothing contiguous has arrived yet.
        """
        prefix, top, reported = self._prefix, self.top, self._reported
        while prefix < top and prefix + 1 not in reported:
            prefix += 1
        self._prefix = prefix
        return prefix
