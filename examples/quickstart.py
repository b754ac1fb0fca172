#!/usr/bin/env python3
"""Quickstart: one lossy multicast, recovered and buffered by RRMP.

Declares the paper's §4 setting with the scenario builder — a single
region of 100 receivers with a 10 ms round-trip time, an IP multicast
that reaches only 10 members — then watches three things happen:

1. randomized local recovery pulls the message to everyone (§2.2);
2. feedback-based short-term buffering holds copies only while
   retransmission requests keep arriving (§3.1);
3. the randomized long-term stage then thins the copies down to ≈C
   members (§3.2).

Run:  python examples/quickstart.py
"""

from repro.metrics.stats import Summary
from repro.scenario.builder import scenario


def main() -> None:
    built = (
        scenario("quickstart", seed=42)
        .single_region(100)
        .fixed_holders(10)            # IP multicast reaches only 10 members
        .multicast_once(start=0.0)
        .policy("two_phase",
                c=6.0,                # expected long-term bufferers per region
                idle_threshold=40.0)  # T = 4 x max RTT, the paper's value
        .protocol(session_interval=25.0)  # heartbeats for tail-loss detection
        .build()
    )
    simulation = built.simulation

    print("== RRMP quickstart: 100 members, initial multicast reaches 10 ==\n")

    for checkpoint in (25.0, 50.0, 100.0, 200.0, 400.0):
        simulation.run(until=checkpoint)
        print(
            f"t={checkpoint:6.1f} ms   received: {simulation.received_count(1):3d}/100"
            f"   buffering: {simulation.buffering_count(1):3d}"
        )

    simulation.run(duration=2_000.0)
    expected_c = built.spec.policy.c
    print(
        f"\nsteady state: received {simulation.received_count(1)}/100, "
        f"long-term bufferers {simulation.buffering_count(1)} (expected ≈ {expected_c:g})"
    )

    latencies = simulation.recovery_latencies()
    print(f"\nrecoveries: {len(latencies)}")
    print(f"  latency: {Summary.from_values(latencies)}")

    stats = simulation.network.stats
    print("\ntraffic by message type:")
    for type_name, count in sorted(stats.sent_by_type.items()):
        print(f"  {type_name:16s} {count:6d}")
    print(f"\nreliability violations: {simulation.violation_count()}")


if __name__ == "__main__":
    main()
