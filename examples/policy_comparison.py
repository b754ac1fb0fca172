#!/usr/bin/env python3
"""Compare every buffering scheme on one WAN workload (paper §1/§3.4).

Runs the same streamed, lossy, three-region session under:

* the paper's two-phase policy,
* Bimodal-Multicast-style fixed-time buffering,
* gossip stability detection (discard only when globally stable),
* the authors' earlier deterministic hash selection (NGC'99),
* the conservative never-discard strawman, and
* an RMTP-like repair-server tree,

then prints the multi-metric table: average/peak occupancy, hotspot
size, recovery latency, and control-traffic cost.  The experiment's
per-policy runs are scenario-builder specs under the hood
(`repro.experiments.ablation_policies`); the footer shows the same
comparison expressed directly as a one-off builder chain.

Run:  python examples/policy_comparison.py        (~a minute)
"""

from repro.experiments.ablation_policies import run_policy_comparison
from repro.scenario.builder import scenario


def main() -> None:
    print("== buffering policy comparison (3 regions x 20 members, "
          "30 msgs, 5% loss) ==\n")
    table = run_policy_comparison(region_size=20, messages=30, interval=20.0,
                                  loss=0.05, seeds=2)
    print(table.to_text(precision=1))
    print()
    print("reading guide:")
    print("  - 'never-discard' shows the unbounded cost the paper's §1 strawman pays;")
    print("  - 'repair-server tree' concentrates the whole session on one node per")
    print("    region (peak single-node occupancy column);")
    print("  - 'stability-gossip' stays safe but pays continuous digest traffic")
    print("    (control messages column);")
    print("  - 'two-phase' keeps occupancy low *and* spread out, with control")
    print("    traffic close to the plain protocol's.")

    # The same kind of run as a ten-line ad-hoc scenario: any policy,
    # any topology, no new experiment module needed.
    built = (
        scenario("policy-oneoff", seed=1)
        .chain(20, 20, 20)
        .uniform(30, 20.0)
        .loss(p=0.05)
        .policy("fixed_time", hold_time=500.0)
        .protocol(max_recovery_time=2_000.0)
        .measure(horizon=2_100.0, probe_period=10.0)
        .run()
    )
    assert built.total_probe is not None
    print()
    print("one-off builder run (fixed-time 500 ms on the same workload):")
    print(f"  avg total occupancy:  {built.total_probe.average():.1f}")
    print(f"  peak node occupancy:  {built.peak_node_occupancy:.0f}")
    print(f"  violations:           {built.simulation.violation_count()}")


if __name__ == "__main__":
    main()
