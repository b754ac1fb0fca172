"""Property-based tests for search termination and correctness."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.library import search_spec


class TestSearchProperties:
    @given(
        n=st.integers(min_value=4, max_value=60),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_search_with_one_bufferer_always_serves(self, n, seed):
        """As long as at least one member buffers the message, the
        downstream requester is served (§3.3's liveness claim)."""
        result = search_spec(n, 1, seed=seed, horizon=10_000.0).run()
        assert result.search_time is not None
        assert result.simulation.members[result.requester].has_received(1)

    @given(
        n=st.integers(min_value=4, max_value=60),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_search_time_nonnegative_and_on_grid(self, n, seed):
        result = search_spec(n, 1, seed=seed, horizon=10_000.0).run()
        assert result.search_time >= 0.0
        # Every hop is 5 ms one-way, timers are 10 ms: the grid is 5 ms.
        assert result.search_time % 5.0 < 1e-9

    @given(
        n=st.integers(min_value=6, max_value=40),
        b=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_all_searches_terminate(self, n, b, seed):
        """Liveness + quiescence.  The requester's remote-retry timer is
        one RTT (§2.2), which cannot cover request + search + return, so
        a second request wave is protocol-legal; what must hold is that
        every wave terminates (no active searches at the horizon) and
        search traffic stays bounded rather than re-seeding forever."""
        result = search_spec(n, min(b, n), seed=seed, horizon=10_000.0).run()
        assert result.simulation.trace.first("remote_request_served") is not None
        simulation = result.simulation
        for node in simulation.hierarchy.regions[0].members:
            assert simulation.members[node].search.active_seqs() == []
        # Bounded traffic: a runaway re-seeding loop would produce
        # thousands of forwards over a 10 s horizon.
        assert simulation.trace.count("search_forwarded") < 60 * n

    @given(seed=st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_given_seed(self, seed):
        a = search_spec(20, 2, seed=seed).run()
        b = search_spec(20, 2, seed=seed).run()
        assert a.search_time == b.search_time
        assert a.bufferers == b.bufferers
