"""Member state-machine tests: remote recovery across regions (§2.2)."""


from repro.net.latency import HierarchicalLatency
from repro.net.topology import chain
from repro.protocol.config import PolicySpec
from repro.protocol.messages import DataMessage
from repro.protocol.rrmp import RrmpSimulation


def build_wan(sizes=(5, 5), seed=0, inter=40.0, **overrides):
    hierarchy = chain(list(sizes))
    defaults = dict(session_interval=None)
    defaults.update(overrides)
    return RrmpSimulation(
        hierarchy,
        config=PolicySpec(**defaults),
        seed=seed,
        latency=HierarchicalLatency(hierarchy, inter_one_way=inter),
    )


def regional_loss(simulation, seq=1):
    """Parent region holds the message; the whole child region misses it."""
    data = DataMessage(seq=seq, sender=simulation.sender.node_id)
    hierarchy = simulation.hierarchy
    for node in hierarchy.regions[0].members:
        simulation.members[node].inject_receive(data)
    for node in hierarchy.regions[1].members:
        simulation.members[node].inject_loss_detection(seq)
    return data


class TestRegionalLossRecovery:
    def test_entire_child_region_recovers(self):
        simulation = build_wan()
        regional_loss(simulation)
        simulation.run(duration=3_000.0)
        assert simulation.all_received(1)

    def test_remote_requests_go_to_parent_region(self):
        simulation = build_wan(seed=2)
        regional_loss(simulation)
        simulation.run(duration=3_000.0)
        parents = set(simulation.hierarchy.regions[0].members)
        for record in simulation.trace.of_kind("remote_request_received"):
            assert record["node"] in parents

    def test_repair_is_remulticast_in_child_region(self):
        """§2.2: the member receiving a remote repair multicasts it locally."""
        simulation = build_wan(seed=2)
        regional_loss(simulation)
        simulation.run(duration=3_000.0)
        multicasters = {
            record["node"] for record in simulation.trace.of_kind("regional_multicast")
        }
        children = set(simulation.hierarchy.regions[1].members)
        assert multicasters and multicasters <= children

    def test_remote_request_volume_scales_with_lambda(self):
        def remote_requests(lam):
            total = 0
            for seed in range(5):
                simulation = build_wan(sizes=(20, 20), seed=seed, remote_lambda=lam)
                regional_loss(simulation)
                simulation.run(duration=1_000.0)
                total += simulation.network.stats.sent_by_type.get("RemoteRequest", 0)
            return total

        assert remote_requests(8.0) > remote_requests(0.5)

    def test_root_region_never_sends_remote_requests(self):
        simulation = build_wan()
        data = DataMessage(seq=1, sender=simulation.sender.node_id)
        # Only one member of the ROOT region holds the message.
        root = simulation.hierarchy.regions[0].members
        simulation.members[root[0]].inject_receive(data)
        for node in root[1:]:
            simulation.members[node].inject_loss_detection(1)
        simulation.run(duration=1_000.0)
        assert simulation.network.stats.sent_by_type.get("RemoteRequest", 0) == 0
        # Recovered purely locally (§2.2: members in the sender's
        # region recover any loss through local recovery).
        for node in root:
            assert simulation.members[node].has_received(1)


class TestRelayRule:
    def test_parent_member_missing_message_records_and_relays(self):
        """§2.2 case 2: r records 'p is waiting' and relays on receipt."""
        simulation = build_wan(sizes=(3, 1), seed=4, remote_lambda=3.0)
        hierarchy = simulation.hierarchy
        data = DataMessage(seq=1, sender=simulation.sender.node_id)
        parent_members = hierarchy.regions[0].members
        child = hierarchy.regions[1].members[0]
        # Nobody in the parent region has the message yet; the child
        # detects the loss and asks upstream (lambda/n = 1 for n=1).
        simulation.members[child].inject_loss_detection(1)
        simulation.run(duration=300.0)
        assert simulation.trace.count("remote_request_recorded") >= 1
        # Now the parent region obtains the message.
        simulation.members[parent_members[0]].inject_receive(data)
        simulation.run(duration=3_000.0)
        assert simulation.members[child].has_received(1)
        relays = [
            record for record in simulation.trace.of_kind("remote_request_served")
            if record["via"] == "relay"
        ]
        assert relays, "the waiting child must be served by a relay"

    def test_duplicate_remote_repair_not_remulticast(self):
        """§2.2: p checks whether the remote repair is a duplicate."""
        simulation = build_wan(sizes=(4, 4), seed=5, remote_lambda=16.0)
        regional_loss(simulation)
        simulation.run(duration=3_000.0)
        # With very aggressive lambda several children may receive
        # remote repairs; each distinct receiver multicasts once, and
        # duplicates (via regional multicast) never cascade.
        multicasts = simulation.trace.count("regional_multicast")
        assert 1 <= multicasts <= 4


class TestHierarchyDepth:
    def test_three_level_chain_recovers_end_to_end(self):
        simulation = build_wan(sizes=(4, 4, 4), seed=7)
        hierarchy = simulation.hierarchy
        data = DataMessage(seq=1, sender=simulation.sender.node_id)
        for node in hierarchy.regions[0].members:
            simulation.members[node].inject_receive(data)
        for region_id in (1, 2):
            for node in hierarchy.regions[region_id].members:
                simulation.members[node].inject_loss_detection(1)
        simulation.run(duration=10_000.0)
        assert simulation.all_received(1)

    def test_latency_grows_with_depth(self):
        simulation = build_wan(sizes=(4, 4, 4), seed=8)
        hierarchy = simulation.hierarchy
        data = DataMessage(seq=1, sender=simulation.sender.node_id)
        for node in hierarchy.regions[0].members:
            simulation.members[node].inject_receive(data)
        for region_id in (1, 2):
            for node in hierarchy.regions[region_id].members:
                simulation.members[node].inject_loss_detection(1)
        simulation.run(duration=10_000.0)
        by_region = {1: [], 2: []}
        for record in simulation.trace.of_kind("recovery_completed"):
            region = hierarchy.region_id_of(record["node"])
            if region in by_region:
                by_region[region].append(record["latency"])
        assert min(by_region[2]) > min(by_region[1])
