#!/usr/bin/env python3
"""Membership churn and long-term buffer handoff (paper §3.2).

A region buffers a stream of messages long-term (≈C copies each).
Members then churn: some leave gracefully — transferring each long-term
entry to a random peer, the paper's handoff rule — and some crash.  A
gossip failure detector (the paper's ref [13] substrate) notices the
crashed members.  At the end, a late downstream request probes whether
the churned region can still serve every message.

The topology/policy/latency tuple is one scenario-builder chain; the
scripted churn choreography (who leaves, who crashes, when) stays
imperative on the built simulation.

Run:  python examples/churn_and_handoff.py
"""

from repro.membership.failure_detector import attach_failure_detectors
from repro.protocol.messages import DataMessage
from repro.scenario.builder import scenario


def main() -> None:
    built = (
        scenario("churn-and-handoff", seed=11)
        .chain(30, 1)  # region under churn + a downstream requester
        .latency(inter_one_way=200.0)
        .policy("two_phase", c=5.0)
        .protocol(session_interval=None, max_search_rounds=200)
        .build()
    )
    simulation = built.simulation
    hierarchy = simulation.hierarchy
    region_nodes = list(hierarchy.regions[0].members)
    requester = hierarchy.regions[1].members[0]
    # suspect_timeout must cover the gossip propagation tail: with
    # fanout 1 a heartbeat needs ~log2(n) rounds on average to reach
    # everyone, with a long tail — 20 rounds of slack avoids flapping.
    detectors = attach_failure_detectors(
        [simulation.members[node] for node in region_nodes],
        gossip_interval=20.0, suspect_timeout=400.0,
    )

    print("== churn & handoff: 30-member region, C = 5, 3 messages ==\n")
    messages = [DataMessage(seq=seq, sender=simulation.sender.node_id)
                for seq in (1, 2, 3)]
    for data in messages:
        for node in region_nodes:
            simulation.members[node].inject_receive(data)
    simulation.run(duration=100.0)  # idle transition done: ~C copies each

    for data in messages:
        print(f"  seq {data.seq}: {simulation.buffering_count(data.seq)} long-term copies")

    # Churn: every current bufferer of seq 1 leaves gracefully; every
    # bufferer of seq 2 crashes.  seq 3's bufferers stay put.
    leavers = [node for node in region_nodes
               if simulation.members[node].alive
               and simulation.members[node].is_buffering(1)]
    crashers = [node for node in region_nodes
                if simulation.members[node].alive
                and simulation.members[node].is_buffering(2)
                and node not in leavers]
    print(f"\nleaving gracefully (bufferers of seq 1): {leavers}")
    print(f"crashing          (bufferers of seq 2): {crashers}")
    for offset, node in enumerate(leavers):
        simulation.sim.at(150.0 + 10 * offset, simulation.members[node].leave)
    for offset, node in enumerate(crashers):
        simulation.sim.at(150.0 + 10 * offset, simulation.members[node].crash)
    simulation.run(duration=1_000.0)

    print(f"\nafter churn ({len(simulation.alive_members()) - 1} region members left):")
    for data in messages:
        print(f"  seq {data.seq}: {simulation.buffering_count(data.seq)} copies "
              f"({simulation.trace.count('handoff_sent')} handoffs sent in total)")

    suspected = {peer for detector in detectors if detector.member.alive
                 for peer in detector.suspected}
    print(f"failure detector suspects: {sorted(suspected)}")

    # A late downstream request for each message: handoff preserved
    # seq 1; seq 2's copies died with the crashers.
    print("\nlate downstream requests:")
    for data in messages:
        simulation.members[requester].inject_loss_detection(data.seq)
    simulation.run(duration=4_000.0)
    for data in messages:
        served = simulation.members[requester].has_received(data.seq)
        print(f"  seq {data.seq}: {'served' if served else 'LOST (all bufferers crashed)'}")


if __name__ == "__main__":
    main()
