"""Property: a policy, FEC or latency node that constructs also builds and runs.

Every range check on the protocol's tunables lives on
:class:`~repro.protocol.config.PolicySpec` and
:class:`~repro.protocol.config.FecSpec`, and on the latencies of
:class:`~repro.scenario.spec.TopologySpec`.  So a drawn value is either
refused with ``ValueError`` when its node is made, or the scenario
built from it runs: no ``ValueError`` from the build, no
``SimulationError`` from the run, and — for latencies, which pace every
recovery round — an end within an event budget.  Values are drawn from
the edges — 0, negatives, nan, ±inf, huge and non-integral numbers,
bools and ``None`` — on tiny specs: one lossy region of 4 members with
2 uniform messages and a 200 ms horizon, and two regions of 2 where
one region misses the message.
"""

import sys
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.protocol.config import FEC_MODES, POLICY_KINDS, FecSpec, PolicySpec
from repro.scenario.materialize import build_scenario
from repro.scenario.spec import (
    LossSpec,
    MeasurementSpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
)

LATENCIES = ("intra_one_way", "inter_one_way", "inter_up_one_way", "inter_down_one_way")

TINY = ScenarioSpec(
    name="tiny",
    topology=TopologySpec(n=4),
    traffic=TrafficSpec(kind="uniform", count=2, interval=10.0),
    loss=LossSpec(kind="bernoulli", p=0.5),
    measurement=MeasurementSpec(horizon=200.0),
)

#: One holder in two regions of 2: the other region misses the message
#: and recovers it in rounds one round-trip apart.
TWO_REGIONS = ScenarioSpec(
    name="two-regions",
    traffic=TrafficSpec(kind="detect_all", holders=1),
    policy=PolicySpec(max_recovery_time=500.0, session_interval=None),
    measurement=MeasurementSpec(horizon=1_000.0),
)
#: Far above what the two-region spec fires at any admitted latency.
EVENT_BUDGET = 50_000

EDGE_VALUES = st.sampled_from([
    0, -1, -0.5, float("nan"), float("inf"), float("-inf"), True, None,
    2.5, 1, 3, 40.0, 1e300, sys.float_info.max, 10**18,
])


def _node(cls, kinds_field, kinds):
    """Keyword arguments for a *cls*: edge values on up to four fields."""
    names = [spec_field.name for spec_field in fields(cls) if spec_field.name != kinds_field]
    return st.builds(
        dict,
        st.dictionaries(st.sampled_from(names), EDGE_VALUES, max_size=4),
        **{kinds_field: st.sampled_from(kinds)},
    )


@given(policy=_node(PolicySpec, "kind", POLICY_KINDS),
       fec=_node(FecSpec, "mode", FEC_MODES),
       seed=st.integers(0, 3))
@example(policy={"kind": "two_phase", "timer_factor": 1e6},
         fec={"mode": "off"}, seed=0)
@settings(deadline=None)
def test_a_node_that_constructs_also_builds_and_runs(policy, fec, seed):
    try:
        spec = TINY.with_(policy=PolicySpec(**policy), fec=FecSpec(**fec), seed=seed)
    except ValueError:
        return
    build_scenario(spec).run()


@given(latencies=st.dictionaries(st.sampled_from(LATENCIES), EDGE_VALUES, max_size=4),
       seed=st.integers(0, 3))
@example(latencies={"intra_one_way": 0}, seed=0)
@example(latencies={"inter_one_way": 0}, seed=0)
@example(latencies={"inter_up_one_way": 0, "inter_down_one_way": 0}, seed=0)
@settings(deadline=None)
def test_a_latency_that_constructs_also_runs_to_its_end(latencies, seed):
    try:
        topology = TopologySpec(kind="chain", sizes=(2, 2), **latencies)
    except ValueError:
        return
    built = build_scenario(TWO_REGIONS.with_(topology=topology, seed=seed))
    sim = built.simulation.sim
    sim.run(until=TWO_REGIONS.measurement.horizon, max_events=EVENT_BUDGET)
    assert sim.events_fired < EVENT_BUDGET, f"spun at t = {sim.now}"
