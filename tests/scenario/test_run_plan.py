"""The one measurement plan (``BuiltScenario.plan``) and its stop rule.

A run that settles (no bound, or ``drain=True`` after one) keeps the
sender's session heartbeat up until no send is still due and every alive
member has received or detected the last seq the sender multicast; only
then does it quiesce and drain.  Quiescing at t=0 used to stop the
heartbeat (and the congestion driver) before the stream began, so the
loss of a stream's last messages went undetected and unreported.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.cli import main
from repro.live.differential import _with_trace
from repro.live.session import LiveSession, run_spec_live
from repro.scenario.materialize import BuiltScenario, build_group, require_envelope
from repro.scenario.library import get_scenario, initial_holders_spec
from repro.scenario.spec import LossSpec, MeasurementSpec, TopologySpec, TrafficSpec
from repro.tree.rmtp import TreeSimulation

STREAMS = ["overload_onset_cc", "wan_burst_loss", "heterogeneous_regions", "flash_crowd",
           "streaming_playback", "overload_onset", "regional_outage"]


def unbounded(name, **loss):
    spec = get_scenario(name)
    spec = spec.with_(measurement=dataclasses.replace(spec.measurement, horizon=None,
                                                      duration=None))
    return spec.with_(loss=dataclasses.replace(spec.loss, **loss)) if loss else spec


def tree_group(spec):
    """The RMTP tree built as ``run_tree_baseline`` builds it, not yet run."""
    return build_group(require_envelope(spec, "tree"), TreeSimulation)


def drive(built, max_steps=200):
    """``BuiltScenario.run`` with a step cap, so a plan that never ends
    fails instead of hanging."""
    sim = built.simulation.sim
    for index, until in enumerate(built.plan()):
        assert index < max_steps, "the plan did not end"
        if until is None:
            sim.drain()
        else:
            sim.run(until=until)
    built.finish()
    return built


class TestUnboundedStreams:
    @pytest.mark.parametrize("name", STREAMS)
    def test_every_member_gets_the_whole_stream(self, name):
        summary = drive(unbounded(name).build()).summary()
        assert summary["delivered_fraction"] == 1.0
        assert summary["reliability_violations"] == 0

    def test_congestion_control_sends_the_whole_offered_load(self):
        summary = drive(unbounded("overload_onset_cc").build()).summary()
        assert summary["messages"] == summary["offered_messages"] == 40

    @pytest.mark.parametrize("name", ["flash_crowd", "wan_burst_loss", "heterogeneous_regions"])
    def test_the_tree_gets_the_whole_stream(self, name):
        built = drive(tree_group(unbounded(name)))
        assert built.summary()["delivered_fraction"] == 1.0
        assert built.simulation.sim.pending_events == 0


class TestTerminationGuard:
    """A region in an outage that never ends can never hear the
    heartbeat; the wait gives up instead of hanging."""

    def test_object_engine_returns_and_reports_the_loss(self):
        built = drive(unbounded("regional_outage", outage_duration=1e9).build())
        assert built.summary()["delivered_fraction"] < 1.0
        assert built.simulation.sim.pending_events == 0

    def test_tree_returns_and_reports_the_loss(self):
        tree = drive(tree_group(unbounded("regional_outage", outage_duration=1e9)))
        assert tree.summary()["delivered_fraction"] < 1.0
        assert tree.simulation.sim.pending_events == 0


def lossy_tail(**measurement):
    """Six members; every multicast misses members 3 and 4 with the
    seed-0 draws, the last one included."""
    spec = get_scenario("initial_holders")
    return spec.with_(
        topology=dataclasses.replace(spec.topology, kind="chain", n=6, sizes=(3, 3)),
        traffic=dataclasses.replace(spec.traffic, kind="uniform", count=4, interval=20.0,
                                    start=10.0),
        loss=LossSpec(kind="bernoulli", p=0.3),
        policy=dataclasses.replace(spec.policy, c=6.0, session_interval=20.0),
        measurement=dataclasses.replace(spec.measurement, **measurement),
    )


class TestDrainAfterABound:
    def test_a_tail_lost_just_before_the_bound_is_recovered_or_reported(self):
        """The last send is at t=70, the bound at 75: the heartbeat must
        outlive the bound for the tail's loss to be detected at all."""
        built = drive(lossy_tail(horizon=75.0, drain=True).build())
        group, last = built.simulation, built.message_count
        reported = {record["node"] for record in group.trace.of_kind("reliability_violation")
                    if record["seq"] == last}
        for member in group.alive_members():
            assert member.has_received(last) or member.node_id in reported
        assert group.sim.pending_events == 0


def vanishing_copies(seed):
    """A lossy stream in two 3-member regions where nobody keeps a
    long-term copy (``c=0``): once the short-term copies go idle, a
    remote request starts a §3.3 search that no member can answer."""
    spec = initial_holders_spec(6, 1, seed=seed)
    return spec.with_(topology=TopologySpec(kind="chain", sizes=(3, 3), intra_one_way=5.0),
                      traffic=TrafficSpec(kind="uniform", count=4, interval=10.0),
                      loss=LossSpec(kind="bernoulli", p=0.3),
                      policy=dataclasses.replace(spec.policy, session_interval=20.0),
                      measurement=MeasurementSpec())


class TestSearchEnds:
    @pytest.mark.parametrize("seed", range(4))
    def test_a_search_nobody_can_answer_stops_at_the_recovery_bound(self, seed):
        """Without a bound in time the searchers recruited each other for
        ever, long after all 24 deliveries: ``drain()`` ran 10,000,000
        events before it raised."""
        built = vanishing_copies(seed).build()
        sim = built.simulation.sim
        for until in built.plan():
            sim.run(until=until, max_events=100_000)
        built.finish()
        assert sim.pending_events == 0
        assert built.summary()["delivered_fraction"] == 1.0
        trace = built.simulation.trace
        assert trace.count("search_abandoned") > 0
        bound = built.spec.policy.max_recovery_time
        joined = {}
        for record in trace.records:
            key = (record.fields.get("node"), record.fields.get("seq"))
            if record.kind == "search_joined":
                joined[key] = record.time
            elif record.kind == "search_forwarded":
                assert record.time - joined[key] < bound


class TestExclusiveBounds:
    def test_both_bounds_are_one_error_naming_both(self):
        with pytest.raises(ValueError, match="horizon and duration"):
            MeasurementSpec(horizon=100.0, duration=100.0)

    @pytest.mark.parametrize("command", [["scenarios", "run"], ["validate", "run"]])
    def test_the_cli_prints_one_error_line(self, command, capsys):
        assert main([*command, "wan_burst_loss", "--param", "measurement.duration=100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: horizon and duration")


class TestOnePlan:
    def test_the_drivers_do_not_read_the_bounds(self):
        for driver in (BuiltScenario.run, LiveSession.run):
            assert "measurement" not in inspect.getsource(driver), driver

    def test_one_way_to_put_the_oracle_on_a_run(self):
        assert "oracle" not in inspect.signature(run_spec_live).parameters
        assert "oracle" not in inspect.signature(_with_trace).parameters
