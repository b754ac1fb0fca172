"""Runner envelopes: every spec node is honoured, refused by name or
declared ignored by each runner (``scenario.materialize.ENVELOPE``)."""

import asyncio
import dataclasses

import pytest

from repro.experiments.base import run_tree_baseline
from repro.live.session import LiveSession
from repro.scale.engine import run_flat
from repro.scenario.library import get_scenario, scale_spec, scenario_names
from repro.scenario.materialize import ENVELOPE, require_envelope
from repro.scenario.spec import ScenarioSpec

#: The ScenarioSpec fields that are spec nodes (sub-specs).
NODES = sorted(
    spec_field.name for spec_field in dataclasses.fields(ScenarioSpec)
    if dataclasses.is_dataclass(getattr(ScenarioSpec(), spec_field.name))
)

RUNNERS = ("flat", "tree", "live_shard")

#: What each runner's refusal starts with.
REFUSAL = {
    "flat": "flat engine cannot run spec 'scale': spec node ",
    "tree": "tree baseline cannot run spec 'scale': spec node ",
    "live_shard": "spec node ",
}

#: Per node, values away from the default; each probe changes a run
#: that honours it.
PROBES = {
    "topology": [{"inter_up_one_way": 400.0, "inter_down_one_way": 400.0}],
    "traffic": [{"count": 5}, {"kind": "detect_all", "holders": 2}],
    "loss": [{"kind": "gilbert_elliott"}],
    "churn": [{"kind": "random", "leave_rate": 0.01, "duration": 200.0}],
    "policy": [{"kind": "fixed_time"}, {"c": 2.0}, {"session_interval": 30.0},
               {"remote_lambda": 3.0}, {"max_recovery_time": 5.0}],
    "fec": [{"mode": "proactive", "block_size": 2}],
    "congestion": [{"controller": "aimd"}],
    "adapt": [{"mode": "passive", "update_interval": 50.0}],
    "mobility": [{"kind": "waypoint", "epoch": 20.0, "duration": 100.0}],
    "playout": [{"kind": "cbr"}],
    "measurement": [{"probe_period": 10.0}, {"duration": 300.0}, {"oracle": True},
                    {"keep_trace": False}],
}


def base_spec():
    """A chain of three regions of four and four messages, lossy enough
    that whole regions miss some and, at seed 1, a flat recovery has to
    retry; bounded.  Every runner runs it as given."""
    spec = scale_spec(regions=3, members_per_region=4, messages=4, loss_rate=0.6, seed=1)
    return spec.with_(topology=dataclasses.replace(spec.topology, kind="chain",
                                                   sizes=(4, 4, 4)))


def probed(node, change):
    spec = base_spec()
    return spec.with_(**{node: dataclasses.replace(getattr(spec, node), **change)})


def without_identity(summary):
    return {key: value for key, value in summary.items()
            if key not in ("digest", "scenario", "seed")}


def fingerprint(runner, spec):
    """What a run of *spec* shows: the flat summary (trace digest
    included), the tree's summary, or — for a live shard, which installs
    through the object engine's code — the object engine's summary."""
    if runner == "flat":
        return run_flat(spec).summary()
    if runner == "tree":
        return without_identity(run_tree_baseline(spec).summary())
    return without_identity(spec.run().summary())


class TestTable:
    def test_every_spec_node_has_a_row_and_a_probe(self):
        assert sorted(ENVELOPE) == NODES
        assert sorted(PROBES) == NODES

    def test_rows_name_known_runners_and_fields(self):
        for name, row in ENVELOPE.items():
            assert set(row) <= set(RUNNERS), name
            node_fields = {f.name for f in dataclasses.fields(getattr(ScenarioSpec(), name))}
            for limits in row.values():
                for limit in limits:
                    assert set(limit.fields) <= node_fields, (name, limit.fields)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_base_spec_is_inside_every_envelope(self, runner):
        require_envelope(base_spec(), runner)

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("node, change", [
        (node, change) for node in sorted(PROBES) for change in PROBES[node]
    ])
    def test_node_is_honoured_refused_or_declared_ignored(self, runner, node, change):
        spec = probed(node, change)
        try:
            ran = require_envelope(spec, runner)
        except ValueError as refusal:
            assert str(refusal).startswith(REFUSAL[runner])
            assert f"spec node {node}: " in str(refusal)
            return
        if getattr(ran, node) == getattr(require_envelope(base_spec(), runner), node):
            return  # declared ignored: reset to what the base runs
        assert fingerprint(runner, spec) != fingerprint(runner, base_spec()), (
            f"{runner} drops {node} {change} without a word")


class TestRefusal:
    def test_one_error_names_every_refused_node(self):
        spec = base_spec()
        spec = spec.with_(
            churn=dataclasses.replace(spec.churn, kind="random"),
            playout=dataclasses.replace(spec.playout, kind="cbr"),
        )
        with pytest.raises(ValueError) as refusal:
            require_envelope(spec, "flat")
        message = str(refusal.value)
        assert message.count("flat engine cannot run spec") == 1
        assert "spec node churn: " in message and "spec node playout: " in message

    def test_refusal_runs_before_the_hierarchy_is_built(self, monkeypatch):
        def build_nothing(topology):
            raise AssertionError("hierarchy built for a refused spec")

        monkeypatch.setattr("repro.scenario.materialize.build_hierarchy", build_nothing)
        with pytest.raises(ValueError, match="tree baseline cannot run spec"):
            run_tree_baseline(probed("traffic", {"kind": "poisson", "duration": 100.0}))


class TestFlat:
    """Each of these ran on the flat engine and returned the base run's
    trace digest: the node was dropped without a word."""

    @pytest.mark.parametrize("node, change", [
        ("congestion", {"controller": "aimd"}),
        ("mobility", {"kind": "waypoint"}),
        ("adapt", {"mode": "passive"}),
        ("playout", {"kind": "cbr"}),
        ("measurement", {"probe_period": 10.0}),
        ("topology", {"inter_up_one_way": 400.0}),
    ])
    def test_a_dropped_node_is_refused_by_name(self, node, change):
        with pytest.raises(ValueError) as refusal:
            run_flat(probed(node, change))
        assert str(refusal.value).startswith(
            f"flat engine cannot run spec 'scale': spec node {node}: ")

    @pytest.mark.parametrize("change", [
        {"horizon": 1.0, "duration": None}, {"duration": 1.0}, {"drain": True},
        {"keep_trace": False},
    ])
    def test_measurement_bounds_are_declared_ignored(self, change):
        spec = probed("measurement", change)
        ran = require_envelope(spec, "flat")
        assert ran.measurement == require_envelope(base_spec(), "flat").measurement
        assert run_flat(spec).trace_digest == run_flat(base_spec()).trace_digest

    @pytest.mark.parametrize("name", scenario_names("flat"))
    def test_every_registered_flat_spec_quiesces_before_its_duration(self, name):
        """Why ignoring the bounds loses nothing."""
        spec = get_scenario(name)
        assert run_flat(spec, digest=False).sim_time_ms < spec.measurement.duration


class TestTree:
    def unbounded_flash_crowd(self, **measurement):
        spec = get_scenario("flash_crowd")
        return spec.with_(measurement=dataclasses.replace(
            spec.measurement, horizon=None, duration=None, **measurement))

    def test_unbounded_spec_returns(self):
        """The tree's session heartbeat used to run forever."""
        built = run_tree_baseline(self.unbounded_flash_crowd())
        assert built.simulation.sim.pending_events == 0
        assert built.message_count == 24

    def test_drain_after_a_bounded_run_is_honoured(self):
        spec = get_scenario("flash_crowd")
        bounded = run_tree_baseline(spec).simulation.sim
        assert bounded.pending_events > 0  # the heartbeat is still armed
        drained = run_tree_baseline(spec.with_(measurement=dataclasses.replace(
            spec.measurement, drain=True))).simulation.sim
        assert drained.pending_events == 0
        assert drained.events_fired > bounded.events_fired

    def test_ignored_nodes_never_reach_the_installer(self):
        spec = get_scenario("flash_crowd")
        spec = spec.with_(
            policy=dataclasses.replace(spec.policy, kind="stability"),
            measurement=dataclasses.replace(spec.measurement, oracle=True),
        )
        built = run_tree_baseline(spec)
        assert built.churn is None and built.oracle is None
        assert not built.stability_agents
        assert built.spec.policy.session_interval == spec.policy.session_interval
        assert "invariant_violations" not in built.summary()


class TestLiveShard:
    @pytest.mark.parametrize("node, change", [
        ("traffic", {"kind": "detect_all", "holders": 2}),
        ("churn", {"kind": "random", "leave_rate": 0.01, "duration": 100.0}),
        ("mobility", {"kind": "waypoint", "duration": 100.0}),
        ("adapt", {"mode": "passive"}),
        ("measurement", {"duration": None}),
    ])
    def test_refusal_fires_in_start_before_the_socket_opens(self, node, change):
        async def main():
            session = LiveSession(probed(node, change), speedup=20.0,
                                  local_nodes={0, 1, 2},
                                  directory={n: ("127.0.0.1", 1) for n in range(12)})
            try:
                with pytest.raises(ValueError, match=f"^spec node {node}: .*sharded"):
                    await session.start()
                assert session.network.local_address is None
                assert not session.members
            finally:
                await session.close()

        asyncio.run(main())
