"""Serialization tests for the scenario spec tree.

The tentpole guarantees: JSON round-trip equality for every spec
(including all registered named scenarios), digest stability across
process restarts, and pickle round trips (the process-pool backend
ships specs to workers by pickle).
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.scenario.library import get_scenario, scenario_names
from repro.scenario.spec import (
    AdaptSpec,
    ChurnSpec,
    FecSpec,
    LossSpec,
    MeasurementSpec,
    MobilitySpec,
    PlayoutSpec,
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
)


def _custom_spec() -> ScenarioSpec:
    """A spec exercising every sub-spec with non-default values."""
    return ScenarioSpec(
        name="custom",
        seed=17,
        description="kitchen sink",
        topology=TopologySpec(kind="chain", sizes=(40, 10, 5),
                              intra_one_way=2.5, inter_one_way=120.0,
                              inter_up_one_way=60.0,
                              inter_down_one_way=180.0),
        traffic=TrafficSpec(kind="burst", bursts=((10.0, 3), (50.0, 2))),
        loss=LossSpec(kind="gilbert_elliott", p_good_to_bad=0.02,
                      p_bad_to_good=0.4, p_bad=0.9),
        churn=ChurnSpec(kind="random", leave_rate=0.01, join_rate=0.02,
                        duration=300.0),
        policy=PolicySpec(kind="fixed_time", hold_time=500.0,
                          session_interval=None, max_recovery_time=1_000.0),
        fec=FecSpec(mode="proactive", block_size=4, parity=2),
        adapt=AdaptSpec(mode="passive", update_interval=150.0,
                        hysteresis=0.2, max_reparents=4, ewma_alpha=0.3),
        mobility=MobilitySpec(kind="waypoint", speed=3.0, epoch=40.0,
                              area=800.0, distance_loss=0.2,
                              protect_sender=False),
        playout=PlayoutSpec(kind="cbr", interval=20.0, startup_delay=80.0),
        measurement=MeasurementSpec(horizon=2_000.0, probe_period=25.0),
    )


class TestJsonRoundTrip:
    def test_default_spec_round_trips(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_kitchen_sink_round_trips(self):
        spec = _custom_spec()
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        # Tuples must come back as tuples, not lists, for equality and
        # hashing downstream.
        assert restored.topology.sizes == (40, 10, 5)
        assert restored.traffic.bursts == ((10.0, 3), (50.0, 2))

    def test_every_registered_scenario_round_trips(self):
        names = scenario_names()
        assert len(names) >= 6
        for name in names:
            spec = get_scenario(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec, name

    def test_indent_does_not_change_the_value(self):
        spec = _custom_spec()
        assert ScenarioSpec.from_json(spec.to_json(indent=2)) == spec

    def test_unknown_fields_rejected(self):
        payload = ScenarioSpec().to_dict()
        payload["topology"]["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            ScenarioSpec.from_dict(payload)
        with pytest.raises(ValueError, match="wat"):
            ScenarioSpec.from_dict({"wat": 1})


class TestDigest:
    def test_digest_is_stable_within_process(self):
        assert _custom_spec().digest() == _custom_spec().digest()

    def test_digest_changes_with_any_field(self):
        spec = _custom_spec()
        assert spec.digest() != spec.with_(seed=18).digest()

    def test_digest_survives_json_round_trip(self):
        spec = _custom_spec()
        assert ScenarioSpec.from_json(spec.to_json()).digest() == spec.digest()

    def test_digest_stable_across_process_restarts(self):
        """A fresh interpreter recomputes the identical digests (the
        catalogue's specs; the custom one rebuilt from
        its JSON) — no dependence on hash randomization or import
        order."""
        import json

        expected = {name: get_scenario(name).digest() for name in scenario_names()}
        expected["__custom__"] = _custom_spec().digest()
        code = (
            "import json, sys\n"
            "from repro.scenario.library import get_scenario, scenario_names\n"
            "from repro.scenario.spec import ScenarioSpec\n"
            "custom = ScenarioSpec.from_json(sys.stdin.read())\n"
            "digests = {n: get_scenario(n).digest() for n in scenario_names()}\n"
            "digests['__custom__'] = custom.digest()\n"
            "print(json.dumps(digests))\n"
        )
        import repro

        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (src_root, env.get("PYTHONPATH", "")) if path
        )
        env["PYTHONHASHSEED"] = "random"
        output = subprocess.run(
            [sys.executable, "-c", code], input=_custom_spec().to_json(),
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        assert json.loads(output) == expected


class TestPickle:
    def test_pickle_round_trip(self):
        spec = _custom_spec()
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert restored.digest() == spec.digest()

    def test_registered_specs_pickle(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert pickle.loads(pickle.dumps(spec)) == spec, name


class TestValidation:
    def test_bad_kinds_rejected(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="ring")
        with pytest.raises(ValueError):
            TrafficSpec(kind="tsunami")
        with pytest.raises(ValueError):
            LossSpec(kind="cosmic_rays")
        with pytest.raises(ValueError):
            ChurnSpec(kind="rapture")
        with pytest.raises(ValueError):
            PolicySpec(kind="yolo")
        with pytest.raises(ValueError):
            FecSpec(mode="sideways")

    def test_range_checks(self):
        with pytest.raises(ValueError):
            LossSpec(kind="bernoulli", p=1.5)
        with pytest.raises(ValueError):
            TopologySpec(kind="chain", sizes=())
        with pytest.raises(ValueError):
            TrafficSpec(kind="uniform", count=3, interval=0.0)
        with pytest.raises(ValueError):
            MeasurementSpec(horizon=-1.0)

    @pytest.mark.parametrize("build, message", [
        (lambda: MeasurementSpec(horizon=float("nan")),
         "MeasurementSpec.horizon must be Optional[finite float], got nan"),
        (lambda: PolicySpec(c=float("nan")), "PolicySpec.c must be finite float, got nan"),
        (lambda: TrafficSpec(interval=float("inf")),
         "TrafficSpec.interval must be finite float, got inf"),
    ], ids=["horizon-nan", "c-nan", "interval-inf"])
    def test_non_finite_number_rejected(self, build, message):
        """One rule for every float field: nan and ±inf are refused when
        the spec is built, naming the node and the field."""
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message

    @pytest.mark.parametrize("latencies", [
        {"intra_one_way": 0.0, "inter_one_way": 40.0},
        {"intra_one_way": 5.0, "inter_one_way": 0.0},
        {"inter_up_one_way": 0.0, "inter_down_one_way": 0.0},
    ], ids=["intra", "inter", "up-and-down"])
    def test_a_zero_latency_is_refused(self, latencies):
        """Recovery rounds re-arm one round-trip apart: on the chain (3, 3)
        with one detect_all holder and ``max_recovery_time=500``, each of
        these fired 100,000 events at t = 0.0 and never gave up."""
        with pytest.raises(ValueError, match=r"_one_way must be > 0 and <= 1e9 ms, got 0\.0"):
            ScenarioSpec(
                topology=TopologySpec(kind="chain", sizes=(3, 3), **latencies),
                traffic=TrafficSpec(kind="detect_all", holders=1),
                policy=PolicySpec(max_recovery_time=500.0),
                measurement=MeasurementSpec(horizon=1_000.0),
            )

    @pytest.mark.parametrize("shape", [{"depth": 1, "fanout": 0}, {"depth": -1}])
    def test_a_balanced_tree_needs_a_depth_and_a_fanout(self, shape):
        """Fuzz finding: the spec constructed and the build raised."""
        with pytest.raises(ValueError, match="balanced_tree needs depth >= 0 and fanout >= 1"):
            TopologySpec(kind="balanced_tree", n=2, **shape)

    @pytest.mark.parametrize("nodes, message", [
        (dict(topology=TopologySpec(n=4), traffic=TrafficSpec(kind="search_probe")),
         "search_probe needs at least two regions"),
        (dict(topology=TopologySpec(kind="star", n=4),
              traffic=TrafficSpec(kind="search_probe")),
         "search_probe needs at least two regions"),
        (dict(topology=TopologySpec(kind="chain", sizes=(2, 5)),
              traffic=TrafficSpec(kind="search_probe", bufferers=3)),
         "search_probe bufferers must be <= the first region's 2 members, got 3"),
        (dict(topology=TopologySpec(kind="star", n=2, sizes=(1,)),
              traffic=TrafficSpec(kind="detect_all", holders=4)),
         "detect_all holders must be <= the group's 3 members, got 4"),
        (dict(traffic=TrafficSpec(kind="poisson")),
         "poisson traffic needs a duration or a horizon"),
        (dict(churn=ChurnSpec(kind="random")), "random churn needs a duration or a horizon"),
        (dict(mobility=MobilitySpec(kind="waypoint")), "mobility needs a duration or a horizon"),
    ], ids=["probe-one-region", "probe-bare-star", "probe-bufferers", "detect-holders",
            "poisson", "churn", "mobility"])
    def test_rules_between_nodes_are_checked_at_construction(self, nodes, message):
        """What used to surface only mid-build is refused when the spec is made."""
        with pytest.raises(ValueError) as refused:
            ScenarioSpec(**nodes)
        assert str(refused.value) == message

    @pytest.mark.parametrize("bound", [{"horizon": 100.0}, {"duration": 100.0}])
    def test_a_bound_times_the_nodes_without_a_duration(self, bound):
        ScenarioSpec(traffic=TrafficSpec(kind="poisson"), churn=ChurnSpec(kind="random"),
                     mobility=MobilitySpec(kind="waypoint"), measurement=MeasurementSpec(**bound))

    def test_member_count(self):
        assert TopologySpec(kind="single_region", n=7).member_count() == 7
        assert TopologySpec(kind="chain", sizes=(3, 4)).member_count() == 7
        assert TopologySpec(kind="star", n=5, sizes=(2, 2)).member_count() == 9
        assert TopologySpec(
            kind="balanced_tree", depth=1, fanout=2, n=3
        ).member_count() == 9


class TestAdaptSpec:
    def test_default_is_off_and_omitted_from_payload(self):
        """The adapt node must not appear in serialized defaults, or
        every pre-adapt spec digest in the wild would change."""
        spec = ScenarioSpec()
        assert not spec.adapt.enabled
        assert "adapt" not in spec.to_dict()

    def test_default_node_does_not_change_the_digest(self):
        spec = get_scenario("heterogeneous_regions")
        assert spec.with_(adapt=AdaptSpec()).digest() == spec.digest()

    def test_enabled_node_round_trips(self):
        spec = ScenarioSpec(adapt=AdaptSpec(
            mode="passive", update_interval=75.0, hysteresis=0.05,
            max_reparents=3, ewma_alpha=0.4,
        ))
        payload = spec.to_dict()
        assert "adapt" in payload
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.adapt.enabled
        assert restored.adapt.update_interval == 75.0
        assert restored.digest() == spec.digest()

    def test_enabled_node_changes_the_digest(self):
        spec = ScenarioSpec()
        assert spec.with_(adapt=AdaptSpec(mode="passive")).digest() != spec.digest()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptSpec(mode="clairvoyant")
        with pytest.raises(ValueError):
            AdaptSpec(update_interval=0.0)
        with pytest.raises(ValueError):
            AdaptSpec(hysteresis=-0.1)
        with pytest.raises(ValueError):
            AdaptSpec(max_reparents=-1)
        with pytest.raises(ValueError):
            AdaptSpec(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            AdaptSpec(ewma_alpha=1.5)


class TestWorkloadSpecs:
    """Mobility, playout and outage nodes: digest-neutral at defaults."""

    def test_default_nodes_are_omitted_from_payload(self):
        """New workload nodes must not appear in serialized defaults, or
        every pre-existing spec digest in the wild would change."""
        payload = ScenarioSpec().to_dict()
        assert "mobility" not in payload
        assert "playout" not in payload
        for field in ("outage_start", "outage_duration", "outage_regions"):
            assert field not in payload["loss"]

    def test_default_nodes_do_not_change_the_digest(self):
        spec = get_scenario("scale")
        assert spec.with_(mobility=MobilitySpec()).digest() == spec.digest()
        assert spec.with_(playout=PlayoutSpec()).digest() == spec.digest()

    def test_enabled_nodes_round_trip(self):
        spec = ScenarioSpec(
            mobility=MobilitySpec(kind="waypoint", speed=5.0, epoch=30.0),
            playout=PlayoutSpec(kind="cbr", interval=10.0),
            loss=LossSpec(kind="outage", outage_start=100.0,
                          outage_duration=250.0, outage_regions=2),
            measurement=MeasurementSpec(horizon=500.0),
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.mobility.enabled and restored.playout.enabled
        assert restored.loss.outage_duration == 250.0
        assert restored.digest() == spec.digest()

    def test_enabled_nodes_change_the_digest(self):
        base = ScenarioSpec(measurement=MeasurementSpec(horizon=500.0))
        assert base.with_(mobility=MobilitySpec(kind="waypoint")).digest() \
            != base.digest()
        assert base.with_(playout=PlayoutSpec(kind="cbr")).digest() \
            != base.digest()

    def test_validation(self):
        with pytest.raises(ValueError):
            MobilitySpec(kind="teleport")
        with pytest.raises(ValueError):
            MobilitySpec(speed=-1.0)
        with pytest.raises(ValueError):
            MobilitySpec(epoch=0.0)
        with pytest.raises(ValueError):
            MobilitySpec(distance_loss=1.5)
        with pytest.raises(ValueError):
            PlayoutSpec(interval=0.0)
        with pytest.raises(ValueError):
            PlayoutSpec(startup_delay=-1.0)
        with pytest.raises(ValueError):
            LossSpec(kind="outage")  # needs a positive duration
        with pytest.raises(ValueError):
            LossSpec(kind="outage", outage_duration=100.0, outage_regions=0)


class TestAsymmetricTopology:
    def test_symmetric_default_is_omitted_from_payload(self):
        payload = ScenarioSpec().to_dict()
        assert "inter_up_one_way" not in payload["topology"]
        assert "inter_down_one_way" not in payload["topology"]

    def test_directional_delays_round_trip(self):
        spec = ScenarioSpec(topology=TopologySpec(
            kind="chain", sizes=(4, 4),
            inter_up_one_way=20.0, inter_down_one_way=60.0,
        ))
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.topology.inter_up_one_way == 20.0
        assert restored.topology.inter_down_one_way == 60.0
        assert restored.digest() == spec.digest()

    def test_directional_delays_change_the_digest(self):
        base = ScenarioSpec()
        skewed = base.with_(topology=TopologySpec(inter_up_one_way=20.0))
        assert skewed.digest() != base.digest()

    def test_negative_directional_delay_rejected(self):
        with pytest.raises(ValueError):
            TopologySpec(inter_up_one_way=-5.0)
        with pytest.raises(ValueError):
            TopologySpec(inter_down_one_way=-5.0)
