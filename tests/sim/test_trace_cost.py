"""Count guards: an observed run pays per record only for who listens.

A trace record used to be a frozen dataclass walked past two subscriber
lists, handed to the oracle whether or not an invariant wanted its kind,
and re-encoded key by key for the digest.  These tests pin the
replacement — one slotted record, one route per kind, one compiled
layout per record shape — by counts and object identity, never by
timings.  That the cheaper path writes the very same bytes is
``tests/sim/test_trace_line.py`` and the golden digests under
``tests/baselines``.
"""

from dataclasses import replace
from unittest import mock

import pytest

from repro.scenario.materialize import build_scenario
from repro.scenario.library import get_scenario
from repro.sim import tracing
from repro.sim.tracing import trace_digest


@pytest.fixture(scope="module")
def observed():
    spec = get_scenario("initial_holders")
    spec = replace(spec, measurement=replace(spec.measurement, keep_trace=True, oracle=True))
    return build_scenario(spec).run()


def test_a_record_is_three_slots(observed):
    records = observed.simulation.trace.records
    assert records
    assert not any(hasattr(record, "__dict__") for record in records)


def test_a_kind_nobody_checks_is_only_retained(observed):
    trace = observed.simulation.trace
    assert trace.count("buffer_idle") > 0
    assert trace._routes["buffer_idle"] == (trace.records.append,)


def test_every_route_holds_only_listeners_of_its_kind(observed):
    trace = observed.simulation.trace
    assert set(trace._routes) == {record.kind for record in trace.records}
    checked = 0
    for kind, route in trace._routes.items():
        assert route[0] == trace.records.append
        for deliver in route[1:]:
            owner = deliver.__self__
            if type(owner).__module__.startswith("repro.metrics."):
                continue
            assert owner in observed.oracle._invariants
            assert deliver == owner.on_record and kind in owner.kinds
            checked += 1
    assert checked  # the oracle did listen to something


def test_the_oracle_still_counts_every_record(observed):
    trace = observed.simulation.trace
    assert observed.oracle.records_checked == len(trace.records) == trace.emitted
    assert observed.oracle.ok


def test_one_layout_per_record_shape(observed):
    records = observed.simulation.trace.records
    with mock.patch.dict(tracing._layouts, clear=True):
        trace_digest(records)
        assert set(tracing._layouts) == {(record.kind, *record.fields) for record in records}
        assert all(tracing._layouts.values())
