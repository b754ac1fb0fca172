"""Loss detection: sequence-number gaps and session-message advertisements.

"A receiver detects a message loss by observing a gap in the sequence
number space.  In addition, session messages are used to help a
receiver detect the loss of the last message in a burst." (§2.1)

:class:`GapTracker` is the per-member detector.  It reports each
missing sequence number exactly once (the member then owns the recovery
process for it) and keeps the received-set that the member consults for
duplicate suppression and for the "received but discarded" branch of
remote-request handling (§3.3).
"""

from __future__ import annotations

from typing import List, Set

from repro.protocol.messages import Seq


class GapTracker:
    """Tracks received sequence numbers and detects losses.

    Sequence numbers start at ``first_seq`` (default 1) and are dense:
    every seq in ``[first_seq, highest]`` is expected, where ``highest``
    is the largest seq either received or advertised by a session
    message / remote request.
    """

    def __init__(self, first_seq: Seq = 1) -> None:
        self.first_seq = first_seq
        self.received: Set[Seq] = set()
        self.highest: Seq = first_seq - 1
        self._reported: Set[Seq] = set()
        self._prefix: Seq = first_seq - 1

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def on_receive(self, seq: Seq) -> List[Seq]:
        """Record receipt of *seq*; return newly-detected missing seqs.

        Receiving seq 5 when the highest previously seen was 2 reveals
        that 3 and 4 are missing (unless already received/reported).
        """
        self.received.add(seq)
        self._reported.discard(seq)
        return self._advance(seq)

    def on_advertise(self, max_seq: Seq) -> List[Seq]:
        """A session message (or request) advertised *max_seq*.

        Every unreceived seq up to *max_seq* becomes a detected loss;
        returns only the newly-detected ones.
        """
        return self._advance(max_seq, include_endpoint=True)

    def _advance(self, seq: Seq, include_endpoint: bool = False) -> List[Seq]:
        end = seq + 1 if include_endpoint else seq
        newly_missing: List[Seq] = []
        if end - 1 > self.highest:
            for missing in range(self.highest + 1, end):
                if missing not in self.received and missing not in self._reported:
                    self._reported.add(missing)
                    newly_missing.append(missing)
            self.highest = end - 1
        return newly_missing

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_received(self, seq: Seq) -> bool:
        """Whether *seq* has ever been received."""
        return seq in self.received

    def knows(self, seq: Seq) -> bool:
        """Whether *seq* was received or detected (advertised, or below a
        seq that was received or advertised)."""
        return seq <= self.highest or seq in self.received

    def missing(self) -> List[Seq]:
        """Currently-known missing seqs, in order."""
        return sorted(s for s in self._reported if s not in self.received)

    @property
    def received_count(self) -> int:
        """Number of distinct messages received."""
        return len(self.received)

    def contiguous_prefix(self) -> Seq:
        """Largest seq such that every message up to it has been received.

        This is the *low watermark* the stability-detection baseline
        gossips: a message is stable once it is below every member's
        watermark.  Returns ``first_seq - 1`` when nothing contiguous
        has arrived yet.
        """
        while (self._prefix + 1) in self.received:
            self._prefix += 1
        return self._prefix
