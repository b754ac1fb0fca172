"""Shape tests for the ablation experiments."""

import pytest

from repro.experiments.ablation_adaptive_tree import run_adaptive_tree_ablation
from repro.experiments.ablation_c import run_c_tradeoff
from repro.experiments.ablation_churn import run_churn_handoff
from repro.experiments.ablation_congestion import run_congestion_ablation
from repro.experiments.ablation_hash import run_hash_vs_random
from repro.experiments.ablation_idle import run_idle_threshold
from repro.experiments.ablation_lambda import run_lambda_sweep
from repro.experiments.ablation_policies import run_policy_comparison
from repro.experiments.ablation_search_storm import (
    run_search_vs_multicast,
    simulate_multicast_replies,
)
from repro.experiments.ablation_workloads import run_workloads_ablation
from repro.experiments.quick import quick_params_for


def by_label(table, series):
    """One series of *table* keyed by its x labels."""
    return dict(zip(table.xs, table.series[series]))


class TestCTradeoff:
    def test_copies_grow_with_c(self):
        table = run_c_tradeoff(cs=(1.0, 6.0), seeds=8)
        copies = table.series["mean long-term copies (buffer cost)"]
        assert copies[1] > copies[0]

    def test_unserved_falls_with_c(self):
        table = run_c_tradeoff(cs=(1.0, 8.0), seeds=10)
        unserved = table.series["unserved within horizon"]
        assert unserved[0] >= unserved[1]


class TestLambdaSweep:
    def test_requests_grow_with_lambda(self):
        table = run_lambda_sweep(lams=(0.5, 8.0), seeds=6)
        requests = table.series["mean remote requests sent"]
        assert requests[1] > requests[0]

    def test_recovery_speeds_up_with_lambda(self):
        table = run_lambda_sweep(lams=(0.25, 8.0), seeds=6)
        latency = table.series["mean time to full region recovery (ms)"]
        assert latency[0] > latency[1]


class TestSearchStorm:
    def test_multicast_replies_grow_with_buffering_fraction(self):
        import random
        low = [simulate_multicast_replies(100, 6, rng=random.Random(s))[0]
               for s in range(200)]
        high = [simulate_multicast_replies(100, 100, rng=random.Random(s))[0]
                for s in range(200)]
        assert sum(high) / len(high) > 2 * sum(low) / len(low)

    def test_zero_bufferers_no_reply(self):
        import random
        replies, first = simulate_multicast_replies(100, 0, rng=random.Random(1))
        assert replies == 0
        assert first == float("inf")

    def test_full_table_shapes(self):
        table = run_search_vs_multicast(buffering_fractions=(0.06, 1.0), seeds=30)
        storm = table.series["multicast: duplicate replies"]
        assert storm[1] > storm[0]  # implosion when everyone buffers
        search = table.series["search: messages"]
        assert search[1] < search[0]  # search trivial when everyone buffers


class TestPolicyComparison:
    def test_paper_claims_on_one_table(self):
        table = run_policy_comparison(**quick_params_for("ablation_policies"))
        two_phase = "two-phase C=6 T=40"
        occupancy = by_label(table, "avg total occupancy")
        assert occupancy[two_phase] < occupancy["never-discard"]
        control = by_label(table, "control messages")
        assert control["stability-gossip"] > 1.5 * control[two_phase]  # digest traffic
        assert by_label(table, "undelivered")[two_phase] == 0.0
        peak_node = by_label(table, "peak single-node occupancy")
        assert peak_node["repair-server tree"] >= peak_node[two_phase]  # server hotspot


class TestHashVsRandom:
    def test_tradeoff_axes(self):
        table = run_hash_vs_random(n=60, seeds=10)
        randomized, deterministic = 0, 1
        hashes = table.series["hash evaluations"]
        assert hashes[deterministic] > hashes[randomized]
        messages = table.series["locate messages"]
        assert messages[randomized] > messages[deterministic]

    def test_both_schemes_serve(self):
        table = run_hash_vs_random(n=60, seeds=10)
        assert all(value == 0.0 for value in table.series["unserved"])


class TestIdleThreshold:
    def test_small_t_causes_violations(self):
        table = run_idle_threshold(thresholds=(10.0, 40.0), seeds=6)
        violations = table.series["reliability violations"]
        assert violations[0] > violations[1]

    def test_buffering_time_grows_with_t(self):
        table = run_idle_threshold(thresholds=(20.0, 160.0), seeds=5)
        buffering = table.series["mean holder buffering time (ms)"]
        assert buffering[1] > buffering[0]


class TestScaling:
    def test_recovery_grows_sublinearly(self):
        from repro.experiments.ablation_scaling import run_scaling
        table = run_scaling(ns=(25, 100), seeds=4)
        recovery = table.series["time to full recovery (ms)"]
        # Epidemic recovery: 4x the members costs at most ~one extra
        # round or two, nowhere near 4x the time (it can even tie,
        # since rounds are 10 ms quanta).
        assert recovery[1] / recovery[0] < 2.0

    def test_copies_independent_of_region_size(self):
        from repro.experiments.ablation_scaling import run_scaling
        table = run_scaling(ns=(25, 200), seeds=5)
        copies = table.series["long-term copies (expect ~C)"]
        assert abs(copies[0] - copies[1]) < 4.0
        everyone = table.series["copies if everyone buffered"]
        assert everyone == [25.0, 200.0]


class TestChurnHandoff:
    def test_handoff_preserves_message(self):
        table = run_churn_handoff(n=30, seeds=8)
        survived = table.series["message survived (%)"]
        graceful, crash = survived[0], survived[1]
        assert graceful >= 80.0
        assert crash <= 20.0

    def test_crash_arm_sends_no_handoffs(self):
        table = run_churn_handoff(n=30, seeds=5)
        transfers = table.series["handoff transfers"]
        assert transfers[0] > 0.0
        assert transfers[1] == 0.0


class TestFecAblation:
    def test_registered_and_dispatches_with_params(self):
        """The experiment runs through the registry (the CLI path)."""
        from repro.experiments.registry import run_experiment

        table = run_experiment(
            "ablation_fec",
            points=((4, 1),), loss_rates=(0.3,),
            region_size=15, messages=8, seeds=2, horizon=2_000.0,
        )
        assert table.xs == ["k=4,r=1,p=0.3"]
        for name in (
            "off: mean latency (ms)",
            "proactive: mean latency (ms)",
            "proactive: gaps decoded",
            "reactive: mean latency (ms)",
            "tree: mean latency (ms)",
        ):
            assert name in table.series

    def test_proactive_decodes_gaps_and_pays_parity(self):
        from repro.experiments.ablation_fec import run_fec_ablation

        table = run_fec_ablation(
            points=((4, 2),), loss_rates=(0.3,),
            region_size=15, messages=8, seeds=3, horizon=2_000.0,
        )
        assert table.series["proactive: gaps decoded"][0] > 0.0
        assert table.series["proactive: parity KB"][0] > 0.0
        assert table.series["off: remote requests"][0] > 0.0


class TestCongestionAblation:
    """Adaptive senders out-deliver the open loop past the bottleneck."""

    @pytest.fixture(scope="class")
    def table(self):
        # The smallest run where the open-loop sender collapses at 2x.
        return run_congestion_ablation(loads=(0.5, 2.0), seeds=1, messages=200,
                                       horizon=8_000.0)

    def test_controllers_are_bystanders_below_capacity(self, table):
        below = 0
        goodput = {mode: table.series[f"{mode}: goodput (msgs/s)"][below]
                   for mode in ("none", "tfmcc", "aimd")}
        assert goodput["none"] == goodput["tfmcc"] == goodput["aimd"]

    def test_adaptive_senders_out_deliver_open_loop_at_2x(self, table):
        overload = 1
        delivered = {mode: table.series[f"{mode}: delivered fraction"][overload]
                     for mode in ("none", "tfmcc", "aimd")}
        # Open loop collapses (give-ups leave messages undelivered);
        # throttling to the bottleneck keeps the fraction near 1.
        assert delivered["none"] < min(delivered["tfmcc"], delivered["aimd"])
        assert (table.series["tfmcc: goodput (msgs/s)"][overload]
                > table.series["none: goodput (msgs/s)"][overload])

    def test_backing_off_relieves_buffers_and_shares_fairly(self, table):
        overload = 1
        open_loop = table.series["none: peak occupancy"][overload]
        assert table.series["tfmcc: peak occupancy"][overload] <= open_loop
        assert table.series["aimd: peak occupancy"][overload] <= open_loop
        assert len([note for note in table.notes if "Jain index" in note]) == 2

    def test_goodput_counts_only_the_messages_sent(self):
        """At 4x load a 2 s horizon ends with AIMD having sent about a
        third of the offered stream; the delivered fraction covers only
        those, so goodput cannot beat the sustainable rate."""
        from repro.experiments.ablation_congestion import trial_cc

        run = trial_cc({"controller": "aimd", "load": 4.0, "n": 30,
                        "capacity_per_member": 100.0, "messages": 300,
                        "base_loss": 0.02, "horizon": 2_000.0}, seed=0)
        assert 0.0 < run["goodput"] <= 100.0


class TestAdaptiveTreeAblation:
    """Re-parenting slow regions shortens the session makespan."""

    BUDGET = 8

    @pytest.fixture(scope="class")
    def table(self):
        return run_adaptive_tree_ablation(max_reparents=self.BUDGET,
                                          **quick_params_for("ablation_adaptive_tree"))

    def test_adaptive_beats_static_on_heterogeneous_regions(self, table):
        adaptive = by_label(table, "adaptive: session makespan (ms)")
        static = by_label(table, "static: session makespan (ms)")
        assert adaptive["heterogeneous_regions"] < static["heterogeneous_regions"]

    def test_no_alternative_parent_means_no_change(self, table):
        adaptive = by_label(table, "adaptive: session makespan (ms)")
        static = by_label(table, "static: session makespan (ms)")
        assert adaptive["wan_burst_loss"] == static["wan_burst_loss"]
        assert by_label(table, "adaptive: re-parents")["wan_burst_loss"] == 0

    def test_reparents_stay_in_budget_and_audit_clean(self, table):
        assert all(count <= self.BUDGET for count in table.series["adaptive: re-parents"])
        assert all(count == 0 for count in table.series["adaptive: invariant violations"])


class TestWorkloadsAblation:
    """Mobility and outage stretch makespan and the rebuffer bill."""

    @pytest.fixture(scope="class")
    def table(self):
        return run_workloads_ablation(**quick_params_for("ablation_workloads"))

    def test_mobility_costs_the_stream(self, table):
        for series in ("session makespan (ms)", "rebuffer events"):
            cost = by_label(table, series)
            assert cost["mobility"] > cost["static"]

    def test_only_the_mobile_run_hands_off(self, table):
        handoffs = by_label(table, "mobility handoffs")
        assert handoffs["mobility"] > 0
        assert handoffs["static"] == 0 and handoffs["outage"] == 0

    def test_healed_outage_stalls_longer_than_static(self, table):
        stall = by_label(table, "rebuffer time (ms)")
        assert stall["outage"] > stall["static"]

    def test_every_mode_runs_clean_under_the_oracle(self, table):
        assert all(count == 0 for count in table.series["invariant violations"])
