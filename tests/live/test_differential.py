"""Tests for the sim/real differential harness."""

from __future__ import annotations

import dataclasses

from repro.live.differential import (
    _with_trace,
    delivery_digest,
    delivery_sets,
    run_differential,
    run_sim_side,
)
from repro.scenario.library import get_scenario
from repro.sim.tracing import TraceLog


def small_spec():
    spec = get_scenario("initial_holders")
    return spec.with_(
        name="diff_test",
        topology=dataclasses.replace(spec.topology, kind="chain", n=6,
                                     sizes=(3, 3)),
        traffic=dataclasses.replace(spec.traffic, kind="uniform", count=4,
                                    interval=20.0, start=10.0),
    )


class TestNormalization:
    def test_delivery_sets_pick_out_the_logical_outcome(self):
        trace = TraceLog()
        trace.emit(5.0, "member_received", node=2, seq=1)
        trace.emit(1.0, "member_received", node=1, seq=1)
        trace.emit(9.0, "reliability_violation", node=3, seq=2)
        trace.emit(2.0, "buffer_add", node=1, seq=1)  # not an outcome
        delivered, violations = delivery_sets(trace.records)
        assert delivered == [(1, 1), (2, 1)]
        assert violations == [(3, 2)]

    def test_digest_ignores_time_and_order(self):
        early = TraceLog()
        early.emit(1.0, "member_received", node=1, seq=1)
        early.emit(2.0, "member_received", node=2, seq=1)
        late = TraceLog()
        late.emit(700.0, "member_received", node=2, seq=1)
        late.emit(900.0, "member_received", node=1, seq=1)
        assert delivery_digest(early.records) == delivery_digest(late.records)

    def test_digest_distinguishes_outcomes(self):
        full = TraceLog()
        full.emit(1.0, "member_received", node=1, seq=1)
        partial = TraceLog()
        partial.emit(1.0, "reliability_violation", node=1, seq=1)
        assert delivery_digest(full.records) != delivery_digest(partial.records)


class TestSimSide:
    def test_sim_side_forces_the_oracle_on(self):
        result = run_sim_side(small_spec())
        assert result.mode == "sim"
        assert result.records_checked > 0
        assert result.oracle_violations == 0
        assert len(result.delivered) == 6 * 4

    def test_sim_side_is_deterministic(self):
        first = run_sim_side(small_spec())
        second = run_sim_side(small_spec())
        assert first.digest == second.digest


class TestDifferential:
    def test_lossless_spec_matches_across_worlds(self):
        result = run_differential(small_spec(), speedup=20.0)
        assert result.digests_match
        assert result.ok
        assert result.sim.delivered == result.live.delivered
        assert result.sim.violations == [] and result.live.violations == []

    def test_both_sides_run_one_spec(self):
        """The oracle goes on through the spec on both sides."""
        result = run_differential(small_spec(), speedup=20.0)
        digest = _with_trace(small_spec()).digest()
        assert result.sim.summary["digest"] == result.live.summary["digest"] == digest
        assert result.sim.records_checked > 0 and result.live.records_checked > 0

    def test_seed_override_propagates(self):
        result = run_differential(small_spec(), speedup=20.0, seed=99)
        assert result.seed == 99
        assert result.ok

    def test_report_is_json_shaped(self):
        import json

        result = run_differential(small_spec(), speedup=20.0)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["ok"] is True
        assert payload["digests_match"] is True
        assert payload["sim"]["mode"] == "sim"
        assert payload["live"]["mode"] == "live"
        assert payload["sim"]["digest"] == payload["live"]["digest"]

    def test_recovery_heavy_registry_scenario_matches(self):
        """A scaled-down initial_holders: 15 of 20 members recover the
        probe message over real UDP and the delivery digest still
        matches the simulator's."""
        spec = get_scenario("initial_holders")
        spec = spec.with_(
            topology=dataclasses.replace(spec.topology, n=20),
            traffic=dataclasses.replace(spec.traffic, holders=5),
        )
        result = run_differential(spec, speedup=5.0)
        # Did the host fall behind?  The live clock's lateness counters.
        lateness = {key: result.live.summary[key] for key in ("max_lateness_ms", "late_fires")}
        assert result.ok, (lateness, result.sim.to_dict(), result.live.to_dict())
        assert len(result.live.delivered) == 20, lateness
