"""Integration tests: the adaptive subsystem end to end.

Two guarantees anchor this file: a default (off) ``AdaptSpec`` is
invisible — byte-identical events and trace digests — and an enabled
one re-parents under the invariant oracle without a single violation.
"""

from dataclasses import replace

from repro.scenario.library import get_scenario
from repro.scenario.spec import AdaptSpec
from repro.sim.tracing import trace_digest


class TestDefaultOff:
    def test_default_adapt_spec_preserves_digest_and_events(self):
        spec = get_scenario("heterogeneous_regions")
        plain = spec.build().run()
        carried = replace(spec, adapt=AdaptSpec()).build().run()
        assert carried.simulation.sim.events_fired == plain.simulation.sim.events_fired
        assert trace_digest(carried.simulation.trace.records) == trace_digest(
            plain.simulation.trace.records
        )
        assert carried.adapt is None
        assert carried.linkstate is None

    def test_default_adapt_spec_preserves_spec_digest(self):
        spec = get_scenario("wan_burst_loss")
        assert replace(spec, adapt=AdaptSpec()).digest() == spec.digest()

    def test_summary_omits_adapt_keys_when_off(self):
        built = get_scenario("wan_burst_loss").build().run()
        summary = built.summary()
        assert "adapt_reparents" not in summary
        assert "adapt_updates" not in summary


class TestAdaptiveRun:
    def _adaptive(self, name, **adapt_kwargs):
        spec = get_scenario(name)
        spec = replace(
            spec,
            adapt=AdaptSpec(mode="passive", **adapt_kwargs),
            measurement=replace(spec.measurement, oracle=True),
        )
        return spec.build().run()

    def test_heterogeneous_regions_reparents_cleanly(self):
        built = self._adaptive("heterogeneous_regions",
                               update_interval=150.0, max_reparents=8)
        summary = built.summary()
        assert summary["invariant_violations"] == 0
        assert summary["adapt_updates"] > 0
        assert summary["adapt_reparents"] <= 8
        assert built.adapt is not None
        assert not built.adapt.running  # stopped at drain
        # Every applied re-parent left a traceable audit record.
        reparents = list(built.simulation.trace.of_kind("tree_reparent"))
        assert len(reparents) == summary["adapt_reparents"]
        built.simulation.hierarchy.validate()

    def test_no_alternative_parent_means_no_reparents(self):
        """wan_burst_loss is a two-region chain: nothing to move to."""
        built = self._adaptive("wan_burst_loss", update_interval=100.0)
        summary = built.summary()
        assert summary["adapt_reparents"] == 0
        assert summary["invariant_violations"] == 0

    def test_churn_scenario_stays_violation_free(self):
        built = self._adaptive("flash_crowd", update_interval=100.0)
        assert built.summary()["invariant_violations"] == 0
        built.simulation.hierarchy.validate()

    def test_makespan_reported_for_adaptive_and_static_runs(self):
        spec = get_scenario("heterogeneous_regions")
        static_summary = spec.build().run().summary()
        adaptive_summary = self._adaptive("heterogeneous_regions").summary()
        for summary in (static_summary, adaptive_summary):
            assert summary["makespan_session_ms"] > 0
            assert (summary["makespan_seq_p90_ms"]
                    <= summary["makespan_seq_max_ms"])
