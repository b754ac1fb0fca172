"""Unit tests for the message buffer store."""

import gc

import pytest

from repro.core.buffer import (
    DISCARD_IDLE,
    DISCARD_REASONS,
    DISCARD_TTL,
    BufferRecord,
    MessageBuffer,
)
from repro.protocol.messages import DataMessage
from repro.sim.engine import collector_paused


def msg(seq: int) -> DataMessage:
    return DataMessage(seq=seq, sender=0)


class TestStorage:
    def test_add_and_query(self):
        buffer = MessageBuffer()
        buffer.add(msg(1), now=10.0)
        assert 1 in buffer
        assert buffer.occupancy == 1
        assert buffer.data(1).seq == 1
        assert buffer.get(1).receive_time == 10.0

    def test_add_is_idempotent(self):
        buffer = MessageBuffer()
        first = buffer.add(msg(1), now=10.0)
        second = buffer.add(msg(1), now=99.0)
        assert first is second
        assert buffer.get(1).receive_time == 10.0

    def test_missing_queries_return_none(self):
        buffer = MessageBuffer()
        assert buffer.get(1) is None
        assert buffer.data(1) is None
        assert 1 not in buffer

    def test_seqs_preserve_insertion_order(self):
        buffer = MessageBuffer()
        for seq in (3, 1, 2):
            buffer.add(msg(seq), now=0.0)
        assert list(buffer.seqs()) == [3, 1, 2]

    def test_long_term_seqs(self):
        buffer = MessageBuffer()
        buffer.add(msg(1), now=0.0)
        entry = buffer.add(msg(2), now=0.0, long_term=True)
        assert entry.long_term
        assert list(buffer.long_term_seqs()) == [2]


class TestDiscard:
    def test_discard_records_episode(self):
        buffer = MessageBuffer()
        buffer.add(msg(1), now=10.0)
        entry = buffer.discard(1, now=50.0, reason=DISCARD_IDLE)
        assert entry is not None
        assert 1 not in buffer
        record = buffer.records[0]
        assert record.duration == pytest.approx(40.0)
        assert record.reason == DISCARD_IDLE
        assert not record.was_long_term

    def test_discard_missing_returns_none(self):
        buffer = MessageBuffer()
        assert buffer.discard(1, now=0.0, reason=DISCARD_IDLE) is None
        assert buffer.records == []

    def test_discard_all(self):
        buffer = MessageBuffer()
        for seq in range(5):
            buffer.add(msg(seq), now=0.0)
        removed = buffer.discard_all(now=100.0)
        assert len(removed) == 5
        assert buffer.occupancy == 0
        assert len(buffer.records) == 5

    def test_long_term_flag_recorded(self):
        buffer = MessageBuffer()
        entry = buffer.add(msg(1), now=0.0)
        entry.long_term = True
        buffer.discard(1, now=10.0, reason=DISCARD_TTL)
        assert buffer.records[0].was_long_term

    def test_durations_filter_by_reason(self):
        buffer = MessageBuffer()
        buffer.add(msg(1), now=0.0)
        buffer.add(msg(2), now=0.0)
        buffer.discard(1, now=40.0, reason=DISCARD_IDLE)
        buffer.discard(2, now=100.0, reason=DISCARD_TTL)
        assert buffer.durations(reason=DISCARD_IDLE) == [pytest.approx(40.0)]
        assert sorted(buffer.durations()) == [pytest.approx(40.0), pytest.approx(100.0)]


class TestColumnarLog:
    @staticmethod
    def episode(seq: int) -> BufferRecord:
        """The episode ``log`` writes for *seq*: every reason, both flags."""
        received = seq * 1.5
        return BufferRecord(seq, received, received + seq % 7,
                            DISCARD_REASONS[seq % len(DISCARD_REASONS)], seq % 3 == 0)

    def log(self, count: int):
        """Log *count* episodes; returns the buffer, the records it must
        read back, and how many collector-tracked objects the discards
        left behind."""
        buffer = MessageBuffer()
        messages = [msg(seq) for seq in range(1, count + 1)]
        episodes = [self.episode(seq) for seq in range(1, count + 1)]
        with collector_paused():
            before = len(gc.get_objects())
            for data, episode in zip(messages, episodes):
                buffer.add(data, now=episode.receive_time, long_term=episode.was_long_term)
                buffer.discard(data.seq, now=episode.discard_time, reason=episode.reason)
            grown = len(gc.get_objects()) - before
        return buffer, episodes, grown

    def test_records_read_back_every_episode(self):
        buffer, expected, _ = self.log(300)
        records = buffer.records
        assert records == expected
        assert all(type(record) is BufferRecord for record in records)
        assert all(type(record.was_long_term) is bool for record in records)
        assert buffer.records is not records  # a fresh list per read

    def test_log_holds_no_object_per_discard(self):
        """The discard log grows by bytes, not by objects the collector
        tracks: ten times the discards leave no more objects behind."""
        short, _, grown_short = self.log(200)
        long, _, grown_long = self.log(2_000)
        assert grown_long <= grown_short
        assert len(long.records) == 2_000 and len(short.records) == 200


class TestLongTermView:
    """``long_term_seqs`` and ``long_term_count`` are read off the
    entries' flags, in admission order."""

    def test_promote(self):
        buffer = MessageBuffer()
        buffer.add(msg(1), now=0.0)
        buffer.add(msg(2), now=0.0)
        assert buffer.promote(1).long_term
        assert not buffer.get(2).long_term
        assert list(buffer.long_term_seqs()) == [1]
        assert buffer.long_term_count == 1

    def test_promote_missing_returns_none(self):
        buffer = MessageBuffer()
        assert buffer.promote(7) is None
        assert buffer.long_term_count == 0

    def test_discard_drops_a_long_term_entry(self):
        buffer = MessageBuffer()
        buffer.add(msg(1), now=0.0, long_term=True)
        buffer.discard(1, now=5.0, reason=DISCARD_TTL)
        assert list(buffer.long_term_seqs()) == []
        assert buffer.long_term_count == 0

    def test_long_term_seqs_ordered_by_insertion(self):
        buffer = MessageBuffer()
        for seq in (5, 2, 9):
            buffer.add(msg(seq), now=0.0)
        # Promote in a different order than insertion.
        buffer.promote(9)
        buffer.promote(5)
        assert list(buffer.long_term_seqs()) == [5, 9]

    def test_readmission_goes_to_the_back(self):
        """A seq re-added after its discard is admitted anew, so it
        sorts after every copy still buffered, whatever its number."""
        buffer = MessageBuffer()
        for seq in (1, 2, 3):
            buffer.add(msg(seq), now=0.0)
            buffer.promote(seq)
        buffer.discard(1, now=10.0, reason=DISCARD_IDLE)
        entry = buffer.add(msg(1), now=20.0)
        assert not entry.long_term  # re-admission starts over short-term
        assert list(buffer.long_term_seqs()) == [2, 3]
        buffer.promote(1)
        assert list(buffer.long_term_seqs()) == [2, 3, 1]
        assert buffer.long_term_count == 3

    def test_discard_all_clears(self):
        buffer = MessageBuffer()
        for seq in (1, 2, 3):
            buffer.add(msg(seq), now=0.0, long_term=seq != 2)
        assert buffer.long_term_count == 2
        buffer.discard_all(now=9.0)
        assert list(buffer.long_term_seqs()) == []
        assert buffer.long_term_count == 0
