"""Declarative scenario API (one serializable spec per simulation run).

The package makes the implicit experiment tuple — topology × traffic ×
loss × churn × buffer policy — a first-class, serializable value:

* :mod:`repro.scenario.spec` — the frozen dataclass tree
  (:class:`~repro.scenario.spec.ScenarioSpec` and its sub-specs, each
  field declared once) with JSON/pickle round trips and a stable digest;
* :mod:`repro.scenario.builder` — the fluent
  :func:`~repro.scenario.builder.scenario` builder, whose verbs take the
  nodes' own field names;
* :mod:`repro.scenario.materialize` —
  :func:`~repro.scenario.materialize.build_scenario`, turning
  a spec into a wired :class:`~repro.protocol.rrmp.RrmpSimulation`
  with traffic, churn, probes and FEC flush scheduled;
* :mod:`repro.scenario.library` — the §4 workload factories and the
  named-scenario catalogue, one tuple of spec values per engine tier,
  behind the ``scenarios`` CLI subcommand.

Quickstart::

    from repro.scenario.builder import scenario

    built = (
        scenario("demo", seed=7)
        .regions(3, 20)
        .uniform(10, 25.0)
        .loss(p=0.05)
        .policy("two_phase", c=4.0)
        .measure(horizon=1_500.0)
        .run()
    )
    print(built.summary())
"""

# benchmarks/ledger/workloads.py imports build_scenario from this package.
from repro.scenario.materialize import build_scenario  # noqa: F401
# benchmarks/ledger/workloads.py imports these two from this package.
from repro.scenario.library import get_scenario, scenario_names  # noqa: F401
