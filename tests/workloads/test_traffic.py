"""Tests for traffic generators."""

import random

import pytest

from repro.net.topology import single_region
from repro.protocol.config import RrmpConfig
from repro.protocol.rrmp import RrmpSimulation
from repro.workloads.traffic import (
    BurstStream,
    PoissonStream,
    RampStream,
    UniformStream,
)
from tests.conftest import send_times


class TestUniformStream:
    def test_send_times(self):
        stream = UniformStream(count=3, interval=20.0, start=5.0)
        assert send_times(stream) == [5.0, 25.0, 45.0]

    def test_zero_count(self):
        assert send_times(UniformStream(count=0, interval=10.0)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformStream(count=-1, interval=10.0)
        with pytest.raises(ValueError):
            UniformStream(count=1, interval=0.0)

    def test_schedule_drives_sender(self):
        simulation = RrmpSimulation(
            single_region(5), config=RrmpConfig(session_interval=None), seed=0,
        )
        count = UniformStream(count=4, interval=10.0).schedule(simulation)
        simulation.run(duration=100.0)
        assert count == 4
        assert simulation.sender.max_seq == 4


class TestPoissonStream:
    def test_times_within_duration(self):
        stream = PoissonStream(rate=0.1, duration=500.0, rng=random.Random(1))
        times = send_times(stream)
        assert times
        assert all(0.0 <= t < 500.0 for t in times)
        assert times == sorted(times)

    def test_rate_controls_count(self):
        low = PoissonStream(rate=0.01, duration=1_000.0, rng=random.Random(2))
        high = PoissonStream(rate=0.1, duration=1_000.0, rng=random.Random(2))
        assert len(send_times(high)) > len(send_times(low))

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonStream(rate=0.0, duration=10.0, rng=random.Random(1))
        with pytest.raises(ValueError):
            PoissonStream(rate=1.0, duration=0.0, rng=random.Random(1))


class TestRampStream:
    def test_send_times_interpolate_gaps_inclusively(self):
        """5 sends, 4 gaps: exactly 40, 30, 20, 10 ms."""
        stream = RampStream(5, initial_interval=40.0, final_interval=10.0)
        assert send_times(stream) == [0.0, 40.0, 70.0, 90.0, 100.0]

    def test_rate_increases_monotonically(self):
        times = send_times(RampStream(20, 50.0, 5.0, start=3.0))
        assert times[0] == 3.0
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[0] == pytest.approx(50.0)
        assert gaps[-1] == pytest.approx(5.0)

    def test_degenerate_counts(self):
        assert send_times(RampStream(0, 10.0, 5.0)) == []
        assert send_times(RampStream(1, 10.0, 5.0, start=7.0)) == [7.0]
        # A single gap uses the initial interval.
        assert send_times(RampStream(2, 10.0, 5.0)) == [0.0, 10.0]

    def test_constant_when_intervals_equal(self):
        stream = RampStream(4, 10.0, 10.0)
        assert send_times(stream) == [0.0, 10.0, 20.0, 30.0]

    def test_end_time_extends_past_last_send(self):
        stream = RampStream(5, 40.0, 10.0)
        assert stream.end_time() == pytest.approx(110.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RampStream(-1, 10.0, 5.0)
        with pytest.raises(ValueError):
            RampStream(3, 0.0, 5.0)
        with pytest.raises(ValueError):
            RampStream(3, 10.0, 0.0)

    def test_schedule_drives_sender(self):
        simulation = RrmpSimulation(
            single_region(5), config=RrmpConfig(session_interval=None), seed=0,
        )
        count = RampStream(6, 20.0, 5.0).schedule(simulation)
        simulation.run(duration=200.0)
        assert count == 6
        assert simulation.sender.max_seq == 6


class TestBurstStream:
    def test_burst_expansion(self):
        stream = BurstStream([(10.0, 3), (50.0, 2)])
        assert send_times(stream) == [10.0, 10.0, 10.0, 50.0, 50.0]

    def test_bursts_sorted_regardless_of_input_order(self):
        stream = BurstStream([(50.0, 1), (10.0, 1)])
        assert send_times(stream) == [10.0, 50.0]

    def test_validation(self):
        """Regression: negative times and empty bursts used to pass
        silently and detonate later inside the scheduler."""
        with pytest.raises(ValueError, match="burst time must be >= 0"):
            BurstStream([(-1.0, 3)])
        with pytest.raises(ValueError, match="burst size must be >= 1"):
            BurstStream([(10.0, 0)])

    def test_burst_through_protocol_uses_sessions_for_tail(self):
        """Back-to-back sends: the last message's loss is only
        detectable via session messages (§2.1)."""
        from repro.net.ipmulticast import FixedHolders
        simulation = RrmpSimulation(
            single_region(6), config=RrmpConfig(session_interval=25.0), seed=3,
        )
        simulation.sender.outcome = FixedHolders(set())  # everyone misses all
        BurstStream([(0.0, 3)]).schedule(simulation)
        simulation.run(duration=2_000.0)
        for seq in (1, 2, 3):
            assert simulation.all_received(seq)


class TestPullApi:
    """The clock-driven next_send(now, credit) surface (see repro.cc)."""

    def test_next_send_returns_arrivals_in_order(self):
        stream = UniformStream(count=3, interval=10.0, start=5.0)
        assert stream.next_send(0.0) == 5.0
        assert stream.next_send(5.0) == 15.0
        assert stream.next_send(15.0) == 25.0
        assert stream.next_send(25.0) is None

    def test_credit_defers_a_ready_arrival(self):
        stream = UniformStream(count=2, interval=10.0, start=0.0)
        assert stream.next_send(0.0, credit=40.0) == 40.0
        assert stream.next_send(40.0, credit=41.0) == 41.0

    def test_credit_below_arrival_is_ignored(self):
        stream = UniformStream(count=1, interval=10.0, start=50.0)
        assert stream.next_send(0.0, credit=10.0) == 50.0

    def test_peek_does_not_consume(self):
        stream = UniformStream(count=2, interval=10.0, start=5.0)
        assert stream.peek_arrival() == 5.0
        assert stream.peek_arrival() == 5.0
        assert stream.next_send(0.0) == 5.0
        assert stream.peek_arrival() == 15.0

    def test_remaining_and_arrival_count(self):
        stream = UniformStream(count=3, interval=10.0)
        assert stream.arrival_count() == 3
        assert stream.remaining() == 3
        stream.next_send(0.0)
        assert stream.remaining() == 2
        assert stream.arrival_count() == 3

    def test_restart_rewinds_to_first_arrival(self):
        stream = UniformStream(count=2, interval=10.0, start=5.0)
        stream.next_send(0.0)
        stream.next_send(0.0)
        assert stream.next_send(0.0) is None
        stream.restart()
        assert stream.next_send(0.0) == 5.0

    def test_random_arrivals_are_memoized_across_restarts(self):
        """The pull API and a restart must see ONE drawn sequence."""
        stream = PoissonStream(rate=0.05, duration=1_000.0, rng=random.Random(7))
        pulled = []
        while (t := stream.next_send(0.0)) is not None:
            pulled.append(t)
        assert send_times(stream) == pulled

    def test_empty_stream(self):
        stream = UniformStream(count=0, interval=10.0)
        assert stream.next_send(0.0) is None
        assert stream.peek_arrival() is None
        assert stream.remaining() == 0
