"""Unit tests for randomized long-term buffering (§3.2)."""

import pytest

from repro.core.long_term import keeps_long_term, long_term_probability
from repro.sim.randomness import RandomStreams


class TestProbability:
    def test_basic_ratio(self):
        assert long_term_probability(6.0, 100) == pytest.approx(0.06)

    def test_clamped_to_one_for_small_regions(self):
        assert long_term_probability(6.0, 3) == 1.0

    def test_zero_c_means_never(self):
        assert long_term_probability(0.0, 100) == 0.0

    def test_empty_region(self):
        assert long_term_probability(6.0, 0) == 0.0

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            long_term_probability(-1.0, 100)


class TestKeepsLongTerm:
    def coins(self, seed=5):
        return RandomStreams(seed).stream("coins")

    def test_expected_count_matches_c(self):
        """Mean of Binomial(n, C/n) is C — the §3.2 guarantee."""
        rng = self.coins()
        n, trials = 100, 3_000
        total = sum(
            sum(1 for _member in range(n) if keeps_long_term(rng, 6.0, n))
            for _trial in range(trials)
        )
        assert total / trials == pytest.approx(6.0, abs=0.25)

    def test_no_bufferer_probability_matches_e_minus_c(self):
        rng = self.coins()
        n, trials = 100, 4_000
        empty = sum(
            1 for _ in range(trials)
            if not any(keeps_long_term(rng, 2.0, n) for _member in range(n))
        )
        # (1 - 2/100)^100 ~= 0.1326
        assert empty / trials == pytest.approx(0.1326, abs=0.03)

    def test_c_zero_never_keeps(self):
        rng = self.coins()
        assert not any(keeps_long_term(rng, 0.0, 100) for _ in range(100))

    def test_small_region_always_keeps(self):
        rng = self.coins()
        assert all(keeps_long_term(rng, 6.0, 3) for _ in range(50))

    def test_empty_region_never_keeps(self):
        assert not keeps_long_term(self.coins(), 6.0, 0)

    def test_certain_outcomes_draw_nothing(self):
        """P <= 0 and P >= 1 decide without a draw, so the stream's next
        value is the one a fresh stream would give."""
        rng = self.coins()
        keeps_long_term(rng, 0.0, 100)
        keeps_long_term(rng, 6.0, 3)
        keeps_long_term(rng, 6.0, 0)
        assert rng.random() == self.coins().random()
