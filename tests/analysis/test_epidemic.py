"""Tests for the mean-field epidemic and search models."""

import pytest

from repro.analysis.epidemic import (
    pull_epidemic_curve,
    pull_epidemic_rounds,
    search_time_estimate,
)
from repro.scenario.library import initial_holders_spec, search_spec


class TestPullEpidemicCurve:
    def test_monotone_non_decreasing(self):
        curve = pull_epidemic_curve(100, 1)
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_saturates_at_n(self):
        curve = pull_epidemic_curve(100, 1)
        assert curve[-1] == pytest.approx(100.0, abs=0.5)

    def test_zero_holders_never_spreads(self):
        assert pull_epidemic_curve(100, 0) == [0.0]

    def test_all_holders_is_immediate(self):
        curve = pull_epidemic_curve(50, 50)
        assert curve[0] == 50.0
        assert len(curve) == 1

    def test_exponential_early_growth(self):
        curve = pull_epidemic_curve(1_000, 1)
        # Early rounds roughly double the holder count.
        assert curve[3] / curve[2] > 1.7

    def test_validation(self):
        with pytest.raises(ValueError):
            pull_epidemic_curve(0, 0)
        with pytest.raises(ValueError):
            pull_epidemic_curve(10, 11)


class TestPullEpidemicRounds:
    def test_more_holders_fewer_rounds(self):
        assert pull_epidemic_rounds(100, 32) < pull_epidemic_rounds(100, 1)

    def test_logarithmic_scaling(self):
        r100 = pull_epidemic_rounds(100, 1)
        r10000 = pull_epidemic_rounds(10_000, 1)
        assert r10000 < 3 * r100  # log-ish, not linear

    def test_matches_simulated_recovery_duration(self):
        """The mean-field model predicts the simulated epidemic within
        a factor of two (rounds are 10 ms in the §4 setup)."""
        rounds = pull_epidemic_rounds(50, 1)
        result = initial_holders_spec(50, 1, seed=0).run()
        received = [record.time for record
                    in result.simulation.trace.of_kind("member_received")]
        simulated_ms = max(received)
        predicted_ms = rounds * 10.0
        assert 0.4 < simulated_ms / predicted_ms < 2.5

    def test_invalid_coverage(self):
        with pytest.raises(ValueError):
            pull_epidemic_rounds(10, 1, coverage=0.0)


class TestSearchTimeEstimate:
    def test_zero_with_all_bufferers(self):
        assert search_time_estimate(100, 100) == 0.0

    def test_infinite_with_no_bufferers(self):
        assert search_time_estimate(100, 0) == float("inf")

    def test_decreases_with_bufferers(self):
        values = [search_time_estimate(100, b) for b in (1, 5, 10)]
        assert values[0] > values[1] > values[2]

    def test_increases_sublinearly_with_region_size(self):
        """Figure 9's claim: 10x size -> only ~2-3x search time."""
        small = search_time_estimate(100, 10)
        large = search_time_estimate(1_000, 10)
        assert 1.5 < large / small < 4.0

    def test_brackets_simulated_search_time(self):
        simulated = []
        for seed in range(30):
            result = search_spec(100, 5, seed=seed).run()
            simulated.append(result.search_time)
        mean_simulated = sum(simulated) / len(simulated)
        estimate = search_time_estimate(100, 5)
        assert 0.3 < mean_simulated / estimate < 3.0
