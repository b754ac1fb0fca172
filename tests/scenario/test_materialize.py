"""Materializer tests: spec → simulation parity and feature wiring.

The headline test hand-assembles the ablation_policies trial exactly
the way the experiment did before the scenario migration — explicit
``RrmpSimulation``, probes, ``UniformStream`` — and asserts the
spec-built path produces byte-identical metrics (hence byte-identical
``SeriesTable`` output for the migrated experiment).
"""

from dataclasses import replace
from typing import Dict

import pytest

from repro.metrics.occupancy import OccupancyProbe
from repro.metrics.snapshot import take_snapshot
from repro.metrics.stats import mean
from repro.net.ipmulticast import BernoulliOutcome
from repro.net.loss import GilbertElliottLoss
from repro.net.topology import chain
from repro.protocol.config import PolicySpec
from repro.protocol.rrmp import RrmpSimulation
from repro.scenario.materialize import build_scenario
from repro.scenario.builder import scenario
from repro.scenario.library import get_scenario, scale_spec
from repro.scenario.spec import (
    MeasurementSpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
)
from repro.workloads.traffic import UniformStream
from tests.conftest import send_times


def _hand_built_policy_trial(
    region_size: int, messages: int, interval: float, loss: float,
    seed: int, horizon: float,
) -> Dict[str, float]:
    """The pre-migration ablation_policies trial body, verbatim
    (two-phase arm), kept as the reference the builder must match."""
    hierarchy = chain([region_size] * 3)
    config = PolicySpec(
        session_interval=50.0, max_recovery_time=horizon, long_term_ttl=1_000.0
    )
    simulation = RrmpSimulation(
        hierarchy, config=config, seed=seed, outcome=BernoulliOutcome(loss),
    )
    total_probe = OccupancyProbe(simulation.sim, simulation.buffer_occupancy, period=10.0)
    peak_node = [0.0]

    def sample_peak() -> float:
        per_node = simulation.occupancy_by_node()
        current = max(per_node.values()) if per_node else 0
        peak_node[0] = max(peak_node[0], float(current))
        return float(current)

    node_probe = OccupancyProbe(simulation.sim, sample_peak, period=10.0)
    UniformStream(messages, interval).schedule(simulation)
    simulation.run(until=horizon)
    total_probe.stop()
    node_probe.stop()
    latencies = simulation.recovery_latencies()
    undelivered = sum(
        len(simulation.alive_members()) - simulation.received_count(seq)
        for seq in range(1, messages + 1)
    )
    return {
        "avg total occupancy": total_probe.average(),
        "peak single-node occupancy": peak_node[0],
        "mean recovery latency (ms)": mean(latencies) if latencies else 0.0,
        "control messages": float(simulation.control_message_count()),
        "data messages": float(simulation.data_message_count()),
        "undelivered": float(undelivered),
        "violations": float(simulation.violation_count()),
    }


class TestBuilderMatchesHandBuilt:
    def test_policy_trial_metrics_byte_identical(self):
        """Builder-built == hand-built, float for float, across seeds."""
        from repro.experiments.ablation_policies import trial_policy

        params = {
            "policy": "two-phase C=6 T=40", "region_size": 8, "messages": 6,
            "interval": 20.0, "loss": 0.05, "horizon": 400.0,
        }
        for seed in (0, 1, 2):
            hand = _hand_built_policy_trial(8, 6, 20.0, 0.05, seed, 400.0)
            spec_built = trial_policy(params, seed)
            assert spec_built == hand, f"seed {seed} diverged"

    def test_policy_table_byte_identical_to_hand_built_table(self):
        """A whole migrated-experiment table derived from the hand-built
        reference equals the registry one, digest for digest."""
        from repro.experiments.ablation_policies import run_policy_comparison

        table = run_policy_comparison(
            region_size=6, messages=4, interval=20.0, loss=0.05,
            seeds=2, settle=300.0,
        )
        horizon = 4 * 20.0 + 300.0
        hand_runs = [
            _hand_built_policy_trial(6, 4, 20.0, 0.05, seed, horizon)
            for seed in (0, 1)
        ]
        two_phase_row = {
            name: values[0] for name, values in table.series.items()
        }
        for name in two_phase_row:
            assert two_phase_row[name] == mean([run[name] for run in hand_runs])


class TestMaterializeFeatures:
    def test_gilbert_elliott_wires_transport_loss(self):
        built = (
            scenario("ge", seed=5)
            .chain(6, 6)
            .uniform(10, 10.0)
            .gilbert_elliott(p_good_to_bad=0.5, p_bad_to_good=0.1, p_bad=1.0)
            .protocol(max_recovery_time=800.0)
            .measure(horizon=1_200.0)
            .build()
        )
        assert isinstance(built.simulation.network.loss, GilbertElliottLoss)
        built.run()
        # The bursty channel actually dropped packets, and recovery
        # repaired at least some of the resulting gaps.
        assert built.simulation.network.stats.dropped > 0
        assert built.simulation.received_count(1) > 0

    def test_ramp_traffic_schedules_all_sends(self):
        built = (
            scenario("ramp", seed=2)
            .single_region(5)
            .ramp(8, 30.0, 5.0)
            .protocol(session_interval=None)
            .measure(duration=400.0)
            .run()
        )
        assert built.message_count == 8
        assert built.simulation.sender.max_seq == 8

    def test_poisson_duration_defaults_to_horizon(self):
        built = (
            scenario("poisson", seed=4)
            .single_region(5)
            .poisson(rate=0.05)
            .measure(horizon=500.0)
            .build()
        )
        assert built.message_count > 0
        assert all(t < 500.0 for t in send_times(built.traffic))

    def test_poisson_without_any_bound_rejected(self):
        with pytest.raises(ValueError, match="poisson"):
            scenario().single_region(5).poisson(rate=0.1).build()

    def test_churn_duration_defaults_to_horizon(self):
        built = (
            scenario("churny", seed=6)
            .regions(2, 10)
            .uniform(5, 20.0)
            .churn(crash_rate=0.01, join_rate=0.01)
            .measure(horizon=600.0)
            .build()
        )
        assert built.churn is not None
        built.run()
        # Some membership events actually fired.
        assert built.churn.applied

    def test_churn_protects_sender_by_default(self):
        built = (
            scenario("protected", seed=8)
            .single_region(6)
            .uniform(3, 20.0)
            .churn(crash_rate=0.2, duration=300.0)
            .measure(horizon=400.0)
            .run()
        )
        assert built.simulation.members[built.simulation.sender.node_id].alive

    def test_detect_all_matches_the_spec_factory(self):
        """The registry spec, reshaped after a JSON round trip, and the
        §4 spec factory draw the same holders."""
        from repro.scenario.library import initial_holders_spec

        result = initial_holders_spec(30, 3, seed=7).run()
        built = get_scenario("initial_holders").with_(seed=7)
        built = ScenarioSpec.from_json(built.to_json())  # survives transport
        built = built.with_(
            topology=TopologySpec(kind="single_region", n=30),
            traffic=TrafficSpec(kind="detect_all", holders=3),
        ).run()
        assert built.holders == result.holders

    def test_detect_all_validates_holder_count(self):
        with pytest.raises(ValueError, match="holders must be <= the group's 4 members"):
            ScenarioSpec(
                topology=TopologySpec(kind="single_region", n=4),
                traffic=TrafficSpec(kind="detect_all", holders=9),
                measurement=MeasurementSpec(duration=100.0),
            )

    def test_drain_after_bounded_run_settles_remaining_events(self):
        """drain=True after a horizon keeps running until the queue is
        empty (sessions stopped), instead of being silently ignored."""
        built = (
            scenario("settle", seed=4)
            .single_region(10)
            .uniform(3, 10.0)
            .loss(p=0.3)
            .protocol(session_interval=25.0, max_recovery_time=300.0)
            .measure(horizon=40.0, drain=True)
            .run()
        )
        sim = built.simulation
        assert sim.sim.now > 40.0  # kept going past the horizon
        assert all(sim.all_received(seq) for seq in (1, 2, 3))

    def test_fec_flush_scheduled_after_stream(self):
        built = (
            scenario("fec", seed=3)
            .chain(5, 5)
            .uniform(6, 10.0)
            .fec("proactive", block_size=4, parity=1, flush_after=1.0)
            .measure(horizon=500.0)
            .run()
        )
        # 6 messages with k=4: one full block encoded proactively, the
        # 2-message tail flushed at end_time + 1.
        assert built.simulation.trace.count("fec_encode") == 2

    def test_region_correlated_outcome_installed(self):
        built = (
            scenario("regional", seed=9)
            .chain(4, 4)
            .regional_loss(region_loss=0.5, receiver_loss=0.1)
            .build()
        )
        outcome = built.simulation.sender.outcome
        from repro.net.ipmulticast import RegionCorrelatedOutcome

        assert isinstance(outcome, RegionCorrelatedOutcome)
        assert outcome.sender == built.simulation.sender.node_id


class TestGiveUpsAreCountedWithoutATrace:
    """``reliability_violations`` used to scan retained records, so a
    run that kept none reported zero while giving up 129 deliveries."""

    def _run(self, keep_trace):
        spec = scale_spec(regions=3, members_per_region=10, messages=30, send_interval=10,
                          loss_rate=0.4, seed=3, horizon=3000, max_recovery_time=20)
        spec = replace(spec, measurement=replace(spec.measurement, keep_trace=keep_trace))
        return build_scenario(spec).run()

    def test_violations_do_not_depend_on_keep_trace(self):
        kept, streamed = self._run(True), self._run(False)
        assert len(kept.simulation.trace.records) > 0
        assert streamed.simulation.trace.records == []
        assert kept.simulation.violation_count() == streamed.simulation.violation_count() == 129
        assert (kept.summary()["reliability_violations"]
                == streamed.summary()["reliability_violations"] == 129)
        assert kept.summary()["delivered_fraction"] == streamed.summary()["delivered_fraction"]

    def test_snapshot_reads_the_tally_not_the_records(self):
        streamed = self._run(False)
        assert len(streamed.simulation.trace.records) == 0
        assert take_snapshot(streamed).reliability_violations == 129
