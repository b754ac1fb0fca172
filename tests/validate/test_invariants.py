"""Fault-injection unit tests: every invariant must actually fire.

Each test feeds the oracle a trace stream (via the fake simulation of
``conftest.py``) that violates exactly one invariant and asserts the
violation is attributed to it — plus the matching clean stream that
must not fire.  An oracle that never flags anything would pass every
scenario test; these are the tests of the tester.
"""

from __future__ import annotations

import pytest

from repro.protocol.config import CongestionSpec
from repro.protocol.messages import DATA_WIRE_SIZE, DataMessage
from repro.scenario.materialize import build_scenario
from repro.scenario.spec import MeasurementSpec, ScenarioSpec, TopologySpec, TrafficSpec
from repro.validate.invariants import Violation
from repro.validate.oracle import InvariantOracle


def names(oracle):
    return [violation.invariant for violation in oracle.violations]


@pytest.fixture
def oracle(fake_sim):
    return InvariantOracle().attach(fake_sim)


class TestNoDuplicateDelivery:
    def test_duplicate_delivery_fires(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "member_received", node=1, seq=5, via="multicast")
        fake_sim.trace.emit(2.0, "member_received", node=1, seq=5, via="local-repair")
        assert names(oracle) == ["no-duplicate-delivery"]
        assert "delivered seq 5 twice" in oracle.violations[0].message

    def test_distinct_nodes_and_seqs_are_fine(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "member_received", node=1, seq=5, via="multicast")
        fake_sim.trace.emit(1.0, "member_received", node=2, seq=5, via="multicast")
        fake_sim.trace.emit(2.0, "member_received", node=1, seq=6, via="multicast")
        assert oracle.ok


class TestGaplessDelivery:
    def test_unresolved_gap_at_quiescence_fires(self, fake_sim, oracle):
        fake_sim.members[1]._gaps = [4]
        oracle.finish()
        assert names(oracle) == ["gapless-delivery"]

    def test_explicit_violation_exempts_the_gap(self, fake_sim, oracle):
        fake_sim.members[1]._gaps = [4]
        fake_sim.trace.emit(1.0, "loss_detected", node=1, seq=4)
        fake_sim.trace.emit(9.0, "reliability_violation", node=1, seq=4, waited=500.0)
        oracle.finish()
        assert oracle.ok

    def test_non_quiescent_run_skips_the_check(self, fake_sim, oracle):
        fake_sim.members[1]._gaps = [4]
        fake_sim.sim.pending_events = 3  # stopped mid-flight
        oracle.finish()
        assert oracle.ok


class TestBufferConservation:
    def test_discard_without_add_fires(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "buffer_discard", node=1, seq=7, reason="idle",
                            was_long_term=False, duration=0.0)
        assert names(oracle) == ["buffer-conservation"]

    def test_double_add_fires(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "buffer_add", node=1, seq=7)
        fake_sim.trace.emit(2.0, "buffer_add", node=1, seq=7)
        assert "double add" in oracle.violations[0].message

    def test_unknown_discard_reason_fires(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "buffer_add", node=1, seq=7)
        fake_sim.trace.emit(2.0, "buffer_discard", node=1, seq=7, reason="whim")
        assert any("unknown" in v.message for v in oracle.violations)

    def test_balanced_ledger_is_clean(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "buffer_add", node=1, seq=7)
        fake_sim.trace.emit(5.0, "buffer_discard", node=1, seq=7, reason="idle",
                            was_long_term=False, duration=4.0)
        oracle.finish()
        assert oracle.ok

    def test_shutdown_clears_the_nodes_ledger(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "buffer_add", node=1, seq=7)
        fake_sim.trace.emit(2.0, "member_crashed", node=1)
        fake_sim.members[1].alive = False
        oracle.finish()
        assert oracle.ok

    def test_trace_vs_live_state_mismatch_fires(self, fake_sim, oracle):
        # Trace says buffered, member buffer says no.
        fake_sim.trace.emit(1.0, "buffer_add", node=1, seq=7)
        oracle.finish()
        assert "buffer disagrees" in oracle.violations[0].message

    def test_untracked_live_entry_fires(self, fake_sim, oracle):
        # Member buffers something the trace never saw added.
        fake_sim.members[2].policy.buffer.add(DataMessage(seq=9, sender=0), 1.0)
        oracle.finish()
        assert any("no live buffer_add" in v.message for v in oracle.violations)

    def test_matching_trace_and_state_is_clean(self, fake_sim, oracle):
        fake_sim.members[2].policy.buffer.add(DataMessage(seq=9, sender=0), 1.0)
        fake_sim.trace.emit(1.0, "buffer_add", node=2, seq=9)
        oracle.finish()
        assert oracle.ok


class TestLongTermQuota:
    def test_over_promotion_fires(self, fake_sim, oracle):
        # C=6 -> statistical bound 6 + 6*sqrt(6) + 4 ~ 24.7; region 0
        # has many members all promoting the same seq.
        fake_sim.hierarchy.node_regions = {n: 0 for n in range(1, 40)}
        for node in range(1, 30):
            fake_sim.trace.emit(1.0, "long_term_selected", node=node, seq=3,
                                via="coin-flip")
        assert "long-term-quota" in names(oracle)

    def test_expected_c_holders_are_clean(self, fake_sim, oracle):
        for node in (1, 2, 3):
            fake_sim.trace.emit(1.0, "long_term_selected", node=node, seq=3,
                                via="coin-flip")
        assert oracle.ok

    def test_handoff_conserves_the_count(self, fake_sim):
        # Quota-only oracle: the synthetic stream has no buffer_add
        # records, which the conservation invariant would flag.
        from repro.validate.invariants import LongTermQuota

        oracle = InvariantOracle(invariants=[LongTermQuota()]).attach(fake_sim)
        fake_sim.hierarchy.node_regions = {n: 0 for n in range(1, 40)}
        bound_fill = list(range(1, 25))  # 24 holders: still under 24.7
        for node in bound_fill:
            fake_sim.trace.emit(1.0, "long_term_selected", node=node, seq=3,
                                via="coin-flip")
        assert oracle.ok
        # A leaver hands off: discard at 24, promote at 30 — count holds.
        fake_sim.trace.emit(2.0, "buffer_discard", node=24, seq=3,
                            reason="handoff", was_long_term=True, duration=1.0)
        fake_sim.trace.emit(2.5, "long_term_selected", node=30, seq=3, via="handoff")
        assert oracle.ok
        # One more net promotion crosses the bound.
        fake_sim.trace.emit(3.0, "long_term_selected", node=31, seq=3, via="coin-flip")
        assert "long-term-quota" in names(oracle)


class TestRecoveryLiveness:
    def test_completed_recovery_is_clean(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "loss_detected", node=1, seq=4)
        fake_sim.trace.emit(9.0, "recovery_completed", node=1, seq=4, latency=8.0,
                            local_rounds=1, remote_rounds=0, remote_requests=0)
        oracle.finish()
        assert oracle.ok

    def test_open_recovery_at_quiescence_fires(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "loss_detected", node=1, seq=4)
        oracle.finish()
        assert names(oracle) == ["recovery-liveness"]

    def test_terminal_without_detection_fires(self, fake_sim, oracle):
        fake_sim.trace.emit(9.0, "recovery_completed", node=1, seq=4, latency=8.0)
        assert "terminal event without detection" in oracle.violations[0].message

    def test_stalled_active_process_fires(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "loss_detected", node=1, seq=4)
        fake_sim.trace.emit(2.0, "reliability_violation", node=1, seq=4, waited=1.0)
        fake_sim.members[1]._active = [4]  # state says still running
        oracle.finish()
        assert any("stalled" in v.message for v in oracle.violations)

    def test_shutdown_cancels_open_recoveries(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "loss_detected", node=1, seq=4)
        fake_sim.trace.emit(2.0, "member_left", node=1)
        fake_sim.members[1].alive = False
        oracle.finish()
        assert oracle.ok


class TestFecAccounting:
    @staticmethod
    def _encode(trace, block=0, k=4, r=2):
        trace.emit(1.0, "fec_encode", block=block, k=k, r=r, trigger="proactive")

    def test_consistent_records_are_clean(self, fake_sim, oracle):
        self._encode(fake_sim.trace)
        fake_sim.trace.emit(1.0, "fec_parity_overhead", block=0, parity_messages=2,
                            parity_bytes=2 * DATA_WIRE_SIZE,
                            data_bytes=4 * DATA_WIRE_SIZE)
        oracle.finish()
        assert oracle.ok

    def test_double_encode_fires(self, fake_sim, oracle):
        self._encode(fake_sim.trace)
        self._encode(fake_sim.trace)
        assert "encoded twice" in oracle.violations[0].message

    def test_parity_count_mismatch_fires(self, fake_sim, oracle):
        self._encode(fake_sim.trace)
        fake_sim.trace.emit(1.0, "fec_parity_overhead", block=0, parity_messages=1,
                            parity_bytes=DATA_WIRE_SIZE,
                            data_bytes=4 * DATA_WIRE_SIZE)
        assert any("encoded with r=2" in v.message for v in oracle.violations)

    def test_orphan_overhead_fires(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "fec_parity_overhead", block=5, parity_messages=1,
                            parity_bytes=DATA_WIRE_SIZE, data_bytes=DATA_WIRE_SIZE)
        assert any("no encode" in v.message for v in oracle.violations)

    def test_byte_accounting_mismatch_fires(self, fake_sim, oracle):
        self._encode(fake_sim.trace)
        fake_sim.trace.emit(1.0, "fec_parity_overhead", block=0, parity_messages=2,
                            parity_bytes=7, data_bytes=4 * DATA_WIRE_SIZE)
        assert any("parity_bytes" in v.message for v in oracle.violations)


class TestCongestionQuota:
    WINDOW = CongestionSpec(controller="aimd", min_rate=10.0, max_rate=100.0)

    def _quota_oracle(self, fake_sim, congestion):
        from repro.validate.invariants import CongestionQuota

        return InvariantOracle(invariants=[CongestionQuota()]).attach(fake_sim, congestion)

    @pytest.mark.parametrize("kind", ["cc_send", "cc_rate_change"])
    def test_interval_outside_the_rate_window_fires(self, fake_sim, kind):
        # min_rate 10/s and max_rate 100/s -> a [10, 100] ms window.
        oracle = self._quota_oracle(fake_sim, self.WINDOW)
        fake_sim.trace.emit(1.0, kind, interval=5.0)
        assert names(oracle) == ["congestion-quota"]
        assert "escaped the configured [10, 100] ms rate window" in oracle.violations[0].message

    def test_interval_inside_the_window_is_clean(self, fake_sim):
        oracle = self._quota_oracle(fake_sim, self.WINDOW)
        for interval in (10.0, 42.0, 100.0):
            fake_sim.trace.emit(1.0, "cc_send", interval=interval)
        assert oracle.ok

    def test_aggregate_over_quota_at_quiescence_fires(self, fake_sim):
        # C=6 -> 24.7 long-term holders per message; 30 hold seq 3.
        oracle = self._quota_oracle(fake_sim, self.WINDOW)
        fake_sim.hierarchy.node_regions = {n: 0 for n in range(1, 40)}
        for node in range(1, 31):
            fake_sim.trace.emit(1.0, "long_term_selected", node=node, seq=3,
                                via="coin-flip")
        assert oracle.ok
        oracle.finish()
        assert names(oracle) == ["congestion-quota"]
        assert "holds 30 long-term entries across 1 messages" in oracle.violations[0].message

    def test_inert_without_a_controller(self, fake_sim):
        oracle = self._quota_oracle(fake_sim, CongestionSpec())
        fake_sim.hierarchy.node_regions = {n: 0 for n in range(1, 40)}
        fake_sim.trace.emit(1.0, "cc_send", interval=5.0)
        for node in range(1, 31):
            fake_sim.trace.emit(1.0, "long_term_selected", node=node, seq=3,
                                via="coin-flip")
        oracle.finish()
        assert oracle.ok

    def test_a_cc_scenario_arms_the_check(self):
        """``build_scenario`` hands the spec's controller to the oracle:
        an out-of-window interval in a real CC run is reported."""
        spec = ScenarioSpec(
            name="cc-quota",
            topology=TopologySpec(n=4),
            traffic=TrafficSpec(kind="uniform", count=4, interval=10.0),
            congestion=self.WINDOW,
            measurement=MeasurementSpec(oracle=True, horizon=500.0),
        )
        built = build_scenario(spec)
        built.simulation.trace.emit(0.0, "cc_send", seq=0, interval=5.0)
        built.run()
        assert built.simulation.trace.count("cc_send") > 1
        assert names(built.oracle) == ["congestion-quota"]


class TestViolationShape:
    def test_to_dict_includes_the_record(self, fake_sim, oracle):
        fake_sim.trace.emit(1.0, "member_received", node=1, seq=5, via="multicast")
        fake_sim.trace.emit(2.0, "member_received", node=1, seq=5, via="handoff")
        payload = oracle.violations[0].to_dict()
        assert payload["invariant"] == "no-duplicate-delivery"
        assert payload["record"]["kind"] == "member_received"
        assert payload["record"]["fields"]["via"] == "handoff"

    def test_to_dict_without_record(self):
        payload = Violation("x", 1.0, "boom").to_dict()
        assert "record" not in payload


class TestAdaptiveTopology:
    """Feed tree_reparent records against a real (mutable) hierarchy."""

    @staticmethod
    def _star():
        from repro.net.topology import star

        return star(2, [2, 2])

    def test_legal_reparent_is_clean(self, oracle, fake_sim):
        fake_sim.hierarchy = self._star()
        fake_sim.hierarchy.set_parent(2, 1)  # apply the move first
        fake_sim.trace.emit(10.0, "tree_reparent", region=2, old_parent=0,
                            new_parent=1, previous_cost=800.0,
                            predicted_cost=160.0)
        assert oracle.finish() == ()

    def test_reparent_onto_empty_region_fires(self, oracle, fake_sim):
        fake_sim.hierarchy = self._star()
        fake_sim.hierarchy.add_region(3, parent_id=0)  # exists, no members
        fake_sim.hierarchy.set_parent(2, 3)
        fake_sim.trace.emit(10.0, "tree_reparent", region=2, old_parent=0,
                            new_parent=3, previous_cost=800.0,
                            predicted_cost=160.0)
        assert any("empty region" in v.message for v in oracle.violations)

    def test_reparent_onto_missing_region_fires(self, oracle, fake_sim):
        fake_sim.hierarchy = self._star()
        fake_sim.trace.emit(10.0, "tree_reparent", region=2, old_parent=0,
                            new_parent=99, previous_cost=800.0,
                            predicted_cost=160.0)
        assert any("missing" in v.message for v in oracle.violations)

    def test_cycle_fires(self, oracle, fake_sim):
        fake_sim.hierarchy = self._star()
        # Manufacture 1 -> 2 -> 1 behind the optimizer's back: set_parent
        # refuses a cycle, so write the links (no delay is read after).
        fake_sim.hierarchy.regions[1].parent_id = 2
        fake_sim.hierarchy.regions[2].parent_id = 1
        fake_sim.trace.emit(10.0, "tree_reparent", region=2, old_parent=0,
                            new_parent=1, previous_cost=800.0,
                            predicted_cost=160.0)
        assert any("invalid" in v.message for v in oracle.violations)

    def test_split_forest_fires(self, oracle, fake_sim):
        fake_sim.hierarchy = self._star()
        fake_sim.hierarchy.set_parent(2, None)  # second root
        fake_sim.trace.emit(10.0, "tree_reparent", region=2, old_parent=0,
                            new_parent=1, previous_cost=800.0,
                            predicted_cost=160.0)
        assert any("disconnected" in v.message for v in oracle.violations)

    def test_inert_without_reparent_records(self, oracle, fake_sim):
        """Static runs pay nothing: no records, no end-of-run re-check —
        even a hierarchy the invariant would reject goes unexamined."""
        fake_sim.hierarchy = self._star()
        fake_sim.hierarchy.set_parent(2, None)
        assert oracle.finish() == ()
