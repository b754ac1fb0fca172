"""Every invariant the oracle carries is fed by some run.

An invariant that no run routes a record to checks nothing at run
time, and a refactor that renames the trace kind it listens for would
leave it silently idle: every run would still pass.  This counts the
records the oracle routes to each :func:`default_invariants` member over
a named spec set — the object catalogue, plus the smallest FEC spec and
adaptive-tree spec the ``--quick`` experiments build (which the
catalogue alone leaves without a record) — and asserts each gets at
least one, except the allowlisted ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

import repro.validate.oracle as oracle_module
from repro.scenario.builder import scenario
from repro.scenario.library import get_scenario, scenario_names
from repro.scenario.spec import AdaptSpec
from repro.validate.invariants import default_invariants

#: Invariants that no run should feed, each with why.
SILENT_BY_DESIGN = {
    "GaplessDelivery": "its only kind, reliability_violation, is a failure",
}


def fec_spec():
    """``ablation_fec --quick``'s smallest point: proactive k=4, r=1 at
    30% regional loss, seed 0."""
    return (
        scenario("ablation-fec", seed=0)
        .chain(25, 25)
        .uniform(24, 5.0)
        .regional_loss(region_loss=0.3)
        .protocol(max_recovery_time=4_000.0, remote_lambda=4.0)
        .measure(horizon=4_000.0)
        .fec("proactive", block_size=4, parity=1)
        .spec()
    )


def adaptive_spec():
    """``ablation_adaptive_tree --quick``'s adaptive run on
    ``heterogeneous_regions``, seed 0."""
    return replace(get_scenario("heterogeneous_regions"), seed=0, adapt=AdaptSpec(
        mode="passive", update_interval=150.0, hysteresis=0.1, max_reparents=8))


def spec_set():
    yield from (get_scenario(name) for name in scenario_names())
    yield fec_spec()
    yield adaptive_spec()


@pytest.fixture(scope="module")
def routed():
    """Records routed to each invariant, by class name, over the spec set."""
    counts = Counter()

    def counted_invariants():
        invariants = default_invariants()
        for invariant in invariants:
            def counted(record, on_record=invariant.on_record,
                        name=type(invariant).__name__):
                counts[name] += 1
                on_record(record)
            invariant.on_record = counted
        return invariants

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_module, "default_invariants", counted_invariants)
        for spec in spec_set():
            spec = replace(spec, measurement=replace(spec.measurement, oracle=True))
            assert spec.run().oracle.ok, spec.name
    return counts


@pytest.mark.parametrize("name", [type(invariant).__name__
                                  for invariant in default_invariants()])
def test_every_invariant_receives_a_record(routed, name):
    if name in SILENT_BY_DESIGN:
        assert routed[name] == 0, SILENT_BY_DESIGN[name]
    else:
        assert routed[name] >= 1, f"{name} was routed no record by any spec"
