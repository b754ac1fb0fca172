"""Property: a policy or FEC node that constructs also builds and runs.

Every range check on the protocol's tunables lives on
:class:`~repro.protocol.config.PolicySpec` and
:class:`~repro.protocol.config.FecSpec`.  So a drawn value is either
refused with ``ValueError`` when its node is made, or the scenario
built from it runs: no ``ValueError`` from the build and no
``SimulationError`` from the run.  Values are drawn from the edges —
0, negatives, nan, ±inf, huge and non-integral numbers, bools and
``None`` — on a tiny lossy spec: one region of 4 members, 2 uniform
messages, a 200 ms horizon.
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

TINY = ScenarioSpec(
    name="tiny",
    topology=TopologySpec(n=4),
    traffic=TrafficSpec(kind="uniform", count=2, interval=10.0),
    loss=LossSpec(kind="bernoulli", p=0.5),
    measurement=MeasurementSpec(horizon=200.0),
)

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
