"""Property-based tests for gap-based loss detection."""

from typing import List, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.loss_detection import GapTracker

seq_lists = st.lists(st.integers(min_value=1, max_value=60),
                     min_size=1, max_size=80)


class ReferenceGapTracker:
    """The set-based tracker :class:`GapTracker` replaced: it keeps every
    seq ever received.  The reference its O(holes) state is checked
    against, step by step."""

    def __init__(self) -> None:
        self.received: Set[int] = set()
        self.highest = 0
        self._reported: Set[int] = set()
        self._prefix = 0

    def on_receive(self, seq: int) -> List[int]:
        self.received.add(seq)
        self._reported.discard(seq)
        return self._advance(seq)

    def on_advertise(self, max_seq: int) -> List[int]:
        return self._advance(max_seq, include_endpoint=True)

    def _advance(self, seq: int, include_endpoint: bool = False) -> List[int]:
        end = seq + 1 if include_endpoint else seq
        newly_missing = []
        if end - 1 > self.highest:
            for missing in range(self.highest + 1, end):
                if missing not in self.received and missing not in self._reported:
                    self._reported.add(missing)
                    newly_missing.append(missing)
            self.highest = end - 1
        return newly_missing

    def is_received(self, seq: int) -> bool:
        return seq in self.received

    def knows(self, seq: int) -> bool:
        return seq <= self.highest or seq in self.received

    def missing(self) -> List[int]:
        return sorted(s for s in self._reported if s not in self.received)

    @property
    def received_count(self) -> int:
        return len(self.received)

    def contiguous_prefix(self) -> int:
        while (self._prefix + 1) in self.received:
            self._prefix += 1
        return self._prefix


#: Seqs a step may carry: 0 and negatives (only a hostile peer sends
#: them), the stream's near range, where in-order, out-of-order and
#: duplicate receipts collide, and far-ahead jumps.
step_seqs = st.one_of(st.integers(min_value=-3, max_value=0),
                      st.integers(min_value=1, max_value=30),
                      st.integers(min_value=31, max_value=200))
steps = st.lists(st.tuples(st.sampled_from(("receive", "advertise")), step_seqs),
                 max_size=60)


class TestAgainstReference:
    @given(steps=steps)
    @settings(deadline=None)
    def test_every_step_matches_the_set_based_tracker(self, steps):
        tracker, reference = GapTracker(), ReferenceGapTracker()
        for op, seq in steps:
            if op == "receive":
                assert tracker.on_receive(seq) == reference.on_receive(seq)
            else:
                assert tracker.on_advertise(seq) == reference.on_advertise(seq)
            assert tracker.missing() == reference.missing()
            assert tracker.received_count == reference.received_count
            assert tracker.contiguous_prefix() == reference.contiguous_prefix()
            assert tracker.highest == reference.highest
            probes = range(-4, max(reference.highest, tracker.top) + 3)
            assert [tracker.is_received(s) for s in probes] == \
                [reference.is_received(s) for s in probes]
            assert [tracker.knows(s) for s in probes] == [reference.knows(s) for s in probes]


class TestGapTrackerProperties:
    @given(seqs=seq_lists)
    @settings(max_examples=100, deadline=None)
    def test_every_gap_reported_exactly_once(self, seqs):
        tracker = GapTracker()
        reported = []
        for seq in seqs:
            reported.extend(tracker.on_receive(seq))
        assert len(reported) == len(set(reported))
        # Everything reported is genuinely below the highest seen and
        # was missing at report time.
        highest = max(seqs)
        assert all(1 <= missing <= highest for missing in reported)

    @given(seqs=seq_lists)
    @settings(max_examples=100, deadline=None)
    def test_received_plus_missing_covers_prefix(self, seqs):
        tracker = GapTracker()
        for seq in seqs:
            tracker.on_receive(seq)
        assert all(tracker.is_received(seq) or seq in tracker.missing()
                   for seq in range(1, tracker.highest + 1))

    @given(seqs=st.permutations(list(range(1, 21))))
    @settings(max_examples=50, deadline=None)
    def test_any_arrival_order_converges_clean(self, seqs):
        """Delivering a dense prefix in any order leaves no missing."""
        tracker = GapTracker()
        for seq in seqs:
            tracker.on_receive(seq)
        assert tracker.missing() == []
        assert tracker.contiguous_prefix() == 20

    @given(seqs=seq_lists, advertised=st.integers(min_value=1, max_value=80))
    @settings(max_examples=100, deadline=None)
    def test_advertise_never_unreports(self, seqs, advertised):
        tracker = GapTracker()
        for seq in seqs:
            tracker.on_receive(seq)
        before = set(tracker.missing())
        tracker.on_advertise(advertised)
        after = set(tracker.missing())
        assert before <= after

    @given(seqs=seq_lists)
    @settings(max_examples=100, deadline=None)
    def test_contiguous_prefix_invariant(self, seqs):
        tracker = GapTracker()
        for seq in seqs:
            tracker.on_receive(seq)
        prefix = tracker.contiguous_prefix()
        assert all(tracker.is_received(seq) for seq in range(1, prefix + 1))
        assert not tracker.is_received(prefix + 1)

    @given(seqs=seq_lists)
    @settings(max_examples=60, deadline=None)
    def test_duplicates_never_change_state(self, seqs):
        tracker_a = GapTracker()
        for seq in seqs:
            tracker_a.on_receive(seq)
        tracker_b = GapTracker()
        for seq in seqs:
            tracker_b.on_receive(seq)
            tracker_b.on_receive(seq)  # duplicate delivery
        probes = range(0, 62)
        assert [tracker_a.is_received(s) for s in probes] == \
            [tracker_b.is_received(s) for s in probes]
        assert tracker_a.received_count == tracker_b.received_count
        assert tracker_a.missing() == tracker_b.missing()
        assert tracker_a.contiguous_prefix() == tracker_b.contiguous_prefix()
