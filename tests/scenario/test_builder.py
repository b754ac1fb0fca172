"""Tests for the fluent scenario builder."""

import pytest

from repro.scenario.builder import scenario
from repro.scenario.spec import ScenarioSpec, TrafficSpec


class TestBuilderProducesSpecs:
    def test_issue_headline_chain(self):
        """The canonical builder one-liner from the API design."""
        spec = (
            scenario()
            .regions(5, 100)
            .poisson(rate=2.0)
            .loss(p=0.01)
            .policy("two_phase", c=3.0)
            .measure(horizon=2_000.0)
            .spec()
        )
        assert spec.topology.kind == "star"
        assert spec.topology.n == 100
        assert spec.topology.sizes == (100, 100, 100, 100)
        assert spec.traffic.kind == "poisson"
        assert spec.traffic.rate == 2.0
        assert spec.loss.kind == "bernoulli"
        assert spec.loss.p == 0.01
        assert spec.policy.kind == "two_phase"
        assert spec.policy.c == 3.0

    def test_each_method_sets_its_sub_spec(self):
        spec = (
            scenario("full", seed=9)
            .chain(10, 5)
            .latency(intra_one_way=2.0, inter_one_way=80.0)
            .ramp(12, 40.0, 4.0, start=1.0)
            .gilbert_elliott(p_bad=0.7)
            .policy("hash", c=4.0)
            .protocol(remote_lambda=2.0, session_interval=None,
                      max_recovery_time=900.0)
            .fec("proactive", block_size=4, parity=1)
            .churn(leave_rate=0.01, join_rate=0.02, duration=200.0)
            .measure(horizon=1_500.0, probe_period=20.0)
            .describe("everything at once")
            .spec()
        )
        assert spec.name == "full" and spec.seed == 9
        assert spec.topology.sizes == (10, 5)
        assert spec.topology.intra_one_way == 2.0
        assert spec.traffic.kind == "ramp" and spec.traffic.count == 12
        assert spec.loss.kind == "gilbert_elliott" and spec.loss.p_bad == 0.7
        assert spec.policy.kind == "hash" and spec.policy.c == 4.0
        assert spec.policy.session_interval is None
        assert spec.policy.max_recovery_time == 900.0
        assert spec.fec.mode == "proactive"
        assert spec.churn.kind == "random" and spec.churn.join_rate == 0.02
        assert spec.measurement.horizon == 1_500.0
        assert spec.description == "everything at once"

    def test_numbers_are_normalized_to_canonical_types(self):
        """Equal scenarios share a digest however the caller spelled the
        numbers (the spec nodes normalise; the builder only forwards)."""
        a = scenario().single_region(20).uniform(5, 10).spec()
        b = scenario().single_region(20).uniform(5, 10.0).spec()
        assert a == b
        assert a.digest() == b.digest()

    def test_policy_tweak_without_kind_keeps_selected_family(self):
        spec = (
            scenario().policy("fixed_time", hold_time=300.0).policy(c=4.0).spec()
        )
        assert spec.policy.kind == "fixed_time"
        assert spec.policy.hold_time == 300.0
        assert spec.policy.c == 4.0

    def test_spec_returns_value_not_view(self):
        builder = scenario("x")
        first = builder.spec()
        builder.single_region(5)
        assert first.topology == scenario("x").spec().topology  # earlier snapshot unaffected

    def test_regions_validation(self):
        with pytest.raises(ValueError):
            scenario().regions(0, 10)

    def test_adaptive_verb_enables_the_subsystem(self):
        spec = (
            scenario().regions(3, 10)
            .adaptive(update_interval=120.0, hysteresis=0.2,
                      max_reparents=5, ewma_alpha=0.3)
            .spec()
        )
        assert spec.adapt.enabled
        assert spec.adapt.mode == "passive"
        assert spec.adapt.update_interval == 120.0
        assert spec.adapt.hysteresis == 0.2
        assert spec.adapt.max_reparents == 5
        assert spec.adapt.ewma_alpha == 0.3

    def test_workload_verbs_set_their_sub_specs(self):
        spec = (
            scenario().regions(3, 10)
            .mobility(speed=5.0, epoch=30.0, distance_loss=0.15)
            .playout(interval=20.0, startup_delay=60.0)
            .measure(horizon=500.0)
            .spec()
        )
        assert spec.mobility.enabled
        assert spec.mobility.kind == "waypoint"
        assert spec.mobility.speed == 5.0
        assert spec.mobility.distance_loss == 0.15
        assert spec.playout.enabled
        assert spec.playout.interval == 20.0
        assert spec.playout.startup_delay == 60.0

    def test_outage_verb_sets_the_loss_node(self):
        spec = (
            scenario().regions(3, 10)
            .outage(outage_start=100.0, outage_duration=250.0, outage_regions=2,
                    receiver_loss=0.05)
            .spec()
        )
        assert spec.loss.kind == "outage"
        assert spec.loss.outage_start == 100.0
        assert spec.loss.outage_duration == 250.0
        assert spec.loss.outage_regions == 2
        assert spec.loss.receiver_loss == 0.05

    def test_latency_verb_sets_directional_delays(self):
        spec = (
            scenario().chain(5, 5)
            .latency(inter_one_way=40.0, inter_up_one_way=10.0, inter_down_one_way=70.0)
            .spec()
        )
        assert spec.topology.inter_up_one_way == 10.0
        assert spec.topology.inter_down_one_way == 70.0
        # None resets to symmetric.
        reset = (
            scenario().chain(5, 5)
            .latency(inter_up_one_way=10.0).latency(inter_up_one_way=None)
            .spec()
        )
        assert reset.topology.inter_up_one_way is None

    def test_measure_takes_every_measurement_field(self):
        spec = scenario().measure(oracle=True, keep_trace=False).spec()
        assert spec.measurement.oracle is True
        assert spec.measurement.keep_trace is False

    def test_unknown_field_is_refused_by_the_node(self):
        with pytest.raises(TypeError, match="bogus"):
            scenario().playout(bogus=1.0)

    def test_round_trip_of_built_spec(self):
        spec = (
            scenario("rt").tree(1, 2, 4).bursts((5.0, 2), (20.0, 1))
            .fixed_holders(3).measure(duration=100.0).spec()
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec


class TestBuilderMaterializes:
    def test_build_and_run_small_scenario(self):
        built = (
            scenario("tiny", seed=3)
            .single_region(8)
            .multicast_once()
            .loss(p=0.5)
            .protocol(session_interval=25.0, max_recovery_time=500.0)
            .measure(horizon=600.0)
            .run()
        )
        assert built.simulation.all_received(1)
        summary = built.summary()
        assert summary["members"] == 8
        assert summary["delivered_fraction"] == 1.0

    def test_search_probe_builder_path(self):
        built = (
            scenario("probe", seed=1)
            .chain(20, 1)
            .latency(inter_one_way=500.0)
            .protocol(session_interval=None)
            .measure(duration=1_500.0)
            .spec()
            .with_(traffic=TrafficSpec(kind="search_probe", bufferers=4))
            .run()
        )
        assert len(built.bufferers) == 4
        assert built.requester is not None
        assert built.simulation.members[built.requester].has_received(1)
