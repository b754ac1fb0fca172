#!/usr/bin/env python3
"""WAN error recovery across an error-recovery hierarchy (paper §2).

Recreates the Figure 1/2 setting with the scenario builder: three
regions in a chain, the sender in region 0, with inter-region latency
an order of magnitude above the intra-region latency.  An entire
downstream region misses a message (a *regional loss*), so local
recovery alone cannot help: watch the λ-probabilistic remote requests
cross the WAN link, the upstream relay rule, and the regional
re-multicast of the repair — then a late straggler exercising the §3.3
search for bufferers.

Run:  python examples/wan_hierarchy.py
"""

from repro.protocol.messages import DataMessage
from repro.scenario.builder import scenario

INTERESTING = (
    "loss_detected",
    "remote_request_received",
    "remote_request_recorded",
    "remote_request_served",
    "regional_multicast",
    "search_joined",
    "search_served",
    "search_redirected",
)


def main() -> None:
    built = (
        scenario("wan-hierarchy", seed=7)
        .chain(6, 6, 6)  # region 0 -> region 1 -> region 2
        .latency(intra_one_way=5.0, inter_one_way=40.0)
        .protocol(remote_lambda=1.0, session_interval=None)
        .build()
    )
    simulation = built.simulation
    hierarchy = simulation.hierarchy

    print("== WAN hierarchy: regional loss in region 1, relay to region 2 ==\n")
    data = DataMessage(seq=1, sender=simulation.sender.node_id)
    # Region 0 (the sender's region) received the multicast; regions 1
    # and 2 missed it entirely and detect the loss simultaneously.
    for node in hierarchy.regions[0].members:
        simulation.members[node].inject_receive(data)
    for region_id in (1, 2):
        for node in hierarchy.regions[region_id].members:
            simulation.members[node].inject_loss_detection(1)

    simulation.run(duration=3_000.0)

    print("protocol event trace (remote recovery path):")
    shown = 0
    for record in simulation.trace.records:
        if record.kind in INTERESTING and shown < 25:
            region = hierarchy.region_id_of(record["node"])
            fields = {k: v for k, v in record.fields.items() if k != "node"}
            print(f"  t={record.time:7.1f}  region {region}  node {record['node']:2d}  "
                  f"{record.kind:26s} {fields}")
            shown += 1

    print(f"\nall 18 members received the message: {simulation.all_received(1)}")
    by_region = {0: [], 1: [], 2: []}
    for record in simulation.trace.of_kind("recovery_completed"):
        by_region[hierarchy.region_id_of(record["node"])].append(record["latency"])
    for region_id, latencies in by_region.items():
        if latencies:
            print(f"  region {region_id}: mean recovery latency "
                  f"{sum(latencies) / len(latencies):7.1f} ms over {len(latencies)} members")

    stats = simulation.network.stats
    remote_lambda = built.spec.policy.remote_lambda
    print(f"\nremote requests sent: {stats.sent_by_type.get('RemoteRequest', 0)} "
          f"(λ = {remote_lambda:g} per region per round)")
    print(f"regional repair multicasts: {simulation.trace.count('regional_multicast')}")


if __name__ == "__main__":
    main()
