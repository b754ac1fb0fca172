"""Unit tests for sequence-gap loss detection (§2.1)."""

from repro.protocol.loss_detection import GapTracker


class TestOnReceive:
    def test_in_order_arrival_detects_nothing(self):
        tracker = GapTracker()
        for seq in (1, 2, 3):
            assert tracker.on_receive(seq) == []
        assert tracker.missing() == []

    def test_gap_reveals_missing(self):
        tracker = GapTracker()
        tracker.on_receive(1)
        assert tracker.on_receive(4) == [2, 3]
        assert tracker.missing() == [2, 3]

    def test_each_loss_reported_once(self):
        tracker = GapTracker()
        tracker.on_receive(3)  # reports 1, 2
        assert tracker.on_receive(5) == [4]  # not 1, 2 again

    def test_recovered_message_leaves_missing_set(self):
        tracker = GapTracker()
        tracker.on_receive(3)
        tracker.on_receive(1)
        assert tracker.missing() == [2]

    def test_first_message_at_seq_one_is_clean(self):
        tracker = GapTracker()
        assert tracker.on_receive(1) == []

    def test_first_message_beyond_one_reports_prefix(self):
        tracker = GapTracker()
        assert tracker.on_receive(3) == [1, 2]

    def test_duplicate_receive_is_harmless(self):
        tracker = GapTracker()
        tracker.on_receive(2)
        assert tracker.on_receive(2) == []
        assert tracker.received_count == 1


class TestOnAdvertise:
    def test_session_message_reveals_tail_loss(self):
        """§2.1: session messages catch the lost last message of a burst."""
        tracker = GapTracker()
        tracker.on_receive(1)
        assert tracker.on_advertise(3) == [2, 3]

    def test_advertise_below_highest_is_noop(self):
        tracker = GapTracker()
        tracker.on_receive(5)
        assert tracker.on_advertise(3) == []

    def test_advertise_is_idempotent(self):
        tracker = GapTracker()
        tracker.on_advertise(2)
        assert tracker.on_advertise(2) == []

    def test_advertise_then_receive(self):
        tracker = GapTracker()
        assert tracker.on_advertise(2) == [1, 2]
        tracker.on_receive(1)
        tracker.on_receive(2)
        assert tracker.missing() == []


class TestContiguousPrefix:
    def test_empty_tracker(self):
        assert GapTracker().contiguous_prefix() == 0

    def test_prefix_advances_with_in_order_receipt(self):
        tracker = GapTracker()
        tracker.on_receive(1)
        tracker.on_receive(2)
        assert tracker.contiguous_prefix() == 2

    def test_prefix_stalls_at_gap(self):
        tracker = GapTracker()
        tracker.on_receive(1)
        tracker.on_receive(3)
        assert tracker.contiguous_prefix() == 1

    def test_prefix_jumps_when_gap_fills(self):
        tracker = GapTracker()
        tracker.on_receive(1)
        tracker.on_receive(3)
        tracker.on_receive(4)
        tracker.on_receive(2)
        assert tracker.contiguous_prefix() == 4


class TestQueries:
    def test_is_received(self):
        tracker = GapTracker()
        tracker.on_receive(2)
        assert tracker.is_received(2)
        assert not tracker.is_received(1)

    def test_received_count(self):
        tracker = GapTracker()
        for seq in (1, 5, 9):
            tracker.on_receive(seq)
        assert tracker.received_count == 3


class TestMemory:
    def test_state_follows_the_holes_not_the_stream(self):
        """Ten thousand receipts around one permanent hole (a give-up)
        leave one reported entry and no other per-seq state."""
        tracker = GapTracker()
        for seq in range(1, 10_001):
            if seq != 17:
                tracker.on_receive(seq)
        per_seq = {name: value for name, value in vars(tracker).items()
                   if not isinstance(value, int)}
        assert per_seq == {"_reported": {17}}
        assert tracker.missing() == [17]
        assert tracker.received_count == 9_999
        assert tracker.contiguous_prefix() == 16
