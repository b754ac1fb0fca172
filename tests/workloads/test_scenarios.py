"""Tests for the §4 scenario specs and the readings Figures 6–9 take off a run."""

import pytest

from repro.scenario.library import initial_holders_spec, search_spec


class TestInitialHoldersScenario:
    def test_basic_run_recovers(self):
        result = initial_holders_spec(30, 3, seed=0).run()
        assert result.simulation.all_received(result.data.seq)
        assert len(result.holders) == 3

    def test_holder_durations_counted_per_holder(self):
        result = initial_holders_spec(30, 5, seed=1).run()
        assert len(result.holder_buffering_durations()) == 5

    def test_durations_at_least_idle_threshold(self):
        """A holder buffers at least T (nothing can idle-out earlier)."""
        result = initial_holders_spec(30, 3, seed=2, idle_threshold=40.0).run()
        assert all(d >= 40.0 for d in result.holder_buffering_durations())

    def test_more_holders_shorter_buffering(self):
        def mean_duration(k):
            total, count = 0.0, 0
            for seed in range(8):
                result = initial_holders_spec(60, k, seed=seed).run()
                durations = result.holder_buffering_durations()
                total += sum(durations)
                count += len(durations)
            return total / count

        assert mean_duration(40) < mean_duration(1)

    def test_all_members_holding_idle_immediately(self):
        result = initial_holders_spec(20, 20, seed=3).run()
        durations = result.holder_buffering_durations()
        assert all(d == pytest.approx(40.0) for d in durations)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            initial_holders_spec(10, 0)
        with pytest.raises(ValueError):
            initial_holders_spec(10, 11)

    def test_deterministic_per_seed(self):
        a = initial_holders_spec(40, 4, seed=9).run().holder_buffering_durations()
        b = initial_holders_spec(40, 4, seed=9).run().holder_buffering_durations()
        assert a == b


class TestSearchScenario:
    def test_search_served(self):
        result = search_spec(50, 5, seed=0).run()
        assert result.search_time is not None
        assert result.search_time >= 0.0

    def test_bufferer_count_honoured(self):
        result = search_spec(50, 5, seed=1).run()
        assert len(result.bufferers) == 5
        simulation = result.simulation
        for node in result.bufferers:
            member = simulation.members[node]
            # Bufferers hold it (unless they handed it over by serving
            # and the scenario ended) — check initial install happened.
            assert member.has_received(1)

    def test_search_time_on_five_ms_grid(self):
        """With 5 ms one-way hops every event lands on the 5 ms grid."""
        result = search_spec(50, 2, seed=2).run()
        assert result.search_time % 5.0 == pytest.approx(0.0)

    def test_zero_bufferers_unserved(self):
        result = search_spec(20, 0, seed=3, horizon=500.0).run()
        assert result.simulation.trace.first("remote_request_served") is None
        assert result.search_time is None

    def test_requester_receives_message(self):
        result = search_spec(50, 5, seed=4).run()
        assert result.simulation.members[result.requester].has_received(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            search_spec(10, 11)
