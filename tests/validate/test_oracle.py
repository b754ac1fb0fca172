"""Oracle integration tests against real simulations.

The headline guarantees: attaching the oracle never changes a run
(event-for-event identical trace), every registered scenario passes
the full invariant set, and a streaming (record-free) trace log is
still observed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.net.ipmulticast import FixedHolderCount
from repro.net.topology import single_region
from repro.protocol.rrmp import RrmpSimulation
from repro.scenario.library import get_scenario, scenario_names
from repro.sim.tracing import trace_digest
from repro.validate.oracle import MAX_STORED_VIOLATIONS, InvariantOracle
from repro.validate.invariants import Violation


def test_attach_twice_refused():
    simulation = RrmpSimulation(single_region(4), seed=1)
    oracle = InvariantOracle().attach(simulation)
    with pytest.raises(RuntimeError, match="already attached"):
        oracle.attach(simulation)


def test_finish_before_attach_refused():
    with pytest.raises(RuntimeError, match="never attached"):
        InvariantOracle().finish()


def test_streaming_trace_log_is_accepted():
    """keep_records=False still fans out to subscribers — valid for the
    oracle."""
    simulation = RrmpSimulation(
        single_region(10), seed=3, outcome=FixedHolderCount(3), keep_trace=False
    )
    oracle = InvariantOracle().attach(simulation)
    simulation.sender.multicast()
    simulation.drain()
    oracle.finish()
    assert oracle.records_checked > 0
    assert oracle.ok


def test_simple_lossy_run_is_clean_and_checked():
    simulation = RrmpSimulation(
        single_region(20), seed=7, outcome=FixedHolderCount(5)
    )
    oracle = InvariantOracle().attach(simulation)
    for _ in range(3):
        simulation.sender.multicast()
    simulation.drain()
    violations = oracle.finish()
    assert violations == ()
    assert oracle.ok
    assert oracle.records_checked > 50
    report = oracle.report_dict()
    assert report["violation_count"] == 0
    assert report["finished"] is True
    assert set(report["violations_by_invariant"]) == {
        "no-duplicate-delivery", "gapless-delivery", "buffer-conservation",
        "long-term-quota", "recovery-liveness", "fec-accounting",
        "congestion-quota", "adaptive-topology",
        "handoff-conservation", "rebuffer-accounting",
    }


def test_finish_is_idempotent():
    simulation = RrmpSimulation(single_region(4), seed=1)
    oracle = InvariantOracle().attach(simulation)
    simulation.sender.multicast()
    simulation.drain()
    first = oracle.finish()
    second = oracle.finish()
    assert first == second


def test_violation_storage_is_capped():
    simulation = RrmpSimulation(single_region(4), seed=1)
    oracle = InvariantOracle().attach(simulation)
    for index in range(MAX_STORED_VIOLATIONS + 50):
        oracle.report(Violation("x", float(index), "boom"))
    assert oracle.violation_count == MAX_STORED_VIOLATIONS + 50
    assert len(oracle.violations) == MAX_STORED_VIOLATIONS


@pytest.mark.parametrize("name", scenario_names())
def test_every_registered_scenario_passes_the_oracle(name):
    spec = get_scenario(name)
    spec = replace(spec, measurement=replace(spec.measurement, oracle=True))
    built = spec.build().run()
    assert built.oracle is not None
    assert built.oracle.finish() == ()
    assert built.oracle.ok
    assert built.summary()["invariant_violations"] == 0


def test_oracle_does_not_perturb_the_run():
    """The oracle is a pure observer: an oracle-carrying run must be
    event-for-event and record-for-record identical to a plain one."""
    spec = get_scenario("wan_burst_loss")
    plain = spec.build().run()
    with_oracle = replace(
        spec, measurement=replace(spec.measurement, oracle=True)
    ).build().run()
    assert (
        with_oracle.simulation.sim.events_fired == plain.simulation.sim.events_fired
    )
    assert trace_digest(with_oracle.simulation.trace.records) == trace_digest(
        plain.simulation.trace.records
    )
    assert with_oracle.summary()["events_fired"] == plain.summary()["events_fired"]


def test_summary_omits_violations_key_when_oracle_off():
    built = get_scenario("search").build().run()
    assert built.oracle is None
    assert "invariant_violations" not in built.summary()


def test_oracle_catches_an_injected_duplicate_delivery():
    """End-to-end fault injection on a real simulation: replaying a
    delivery record must trip the oracle."""
    simulation = RrmpSimulation(single_region(6), seed=2)
    oracle = InvariantOracle().attach(simulation)
    simulation.sender.multicast()
    simulation.drain()
    assert oracle.ok
    record = next(simulation.trace.of_kind("member_received"))
    simulation.trace.emit(simulation.sim.now, "member_received",
                          node=record["node"], seq=record["seq"], via="replay")
    assert not oracle.ok
    assert oracle.violations[0].invariant == "no-duplicate-delivery"


def test_the_oracle_checks_the_playout_tracker_the_build_installed():
    """The build hands the oracle its rebuffer tracker; a tracker count
    that disagrees with the delivery trace is then a violation."""
    spec = get_scenario("streaming_playback")
    built = replace(spec, measurement=replace(spec.measurement, oracle=True)).build()
    assert built.rebuffer is not None
    assert built.oracle.rebuffer is built.rebuffer
    sim = built.simulation.sim
    for until in built.plan():
        if until is None:
            sim.drain()
        else:
            sim.run(until=until)
    next(iter(built.rebuffer.clocks.values())).stall_events += 1
    built.finish()
    assert [violation.invariant for violation in built.oracle.violations] == [
        "rebuffer-accounting"]
