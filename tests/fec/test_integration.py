"""Integration tests: FEC wired through the RRMP protocol stack."""


from repro.net.ipmulticast import (
    FixedHolders,
    MulticastOutcome,
    RegionCorrelatedOutcome,
)
from repro.net.topology import chain, single_region
from repro.protocol.config import FecSpec, PolicySpec
from repro.protocol.messages import LocalRequest, Repair
from repro.protocol.rrmp import RrmpSimulation


def fec_setup(mode="proactive", k=4, r=1, **overrides):
    """``RrmpSimulation`` keyword arguments: FEC on, sessions off."""
    defaults = dict(session_interval=None)
    defaults.update(overrides)
    return dict(config=PolicySpec(**defaults), fec=FecSpec(mode=mode, block_size=k, parity=r))


class LoseSeqsAt(MulticastOutcome):
    """Everything arrives everywhere, except *seqs* miss *victim*.

    Selecting by seq (parity seqs are negative) lets a test lose a
    specific data message while its block's parity still arrives.
    """

    def __init__(self, victim, seqs):
        self.victim = victim
        self.seqs = set(seqs)

    def holders(self, seq, group, rng):
        lost = {self.victim} if seq in self.seqs else set()
        return set(group) - lost


class TestProactiveRepair:
    def test_parity_fills_gap_without_any_request(self):
        """One member misses the tail message of a block; the block's
        parity fills the gap before the loss is even detected, so pull
        recovery never sends a request."""
        hierarchy = single_region(4)
        simulation = RrmpSimulation(hierarchy, **fec_setup(k=2, r=1), seed=1)
        sender = simulation.sender
        victim = [n for n in hierarchy.nodes if n != sender.node_id][0]
        sender.outcome = LoseSeqsAt(victim, {2})
        sender.multicast(payload="m1")
        sender.multicast(payload="m2")  # completes the block -> parity
        simulation.run(duration=500.0)
        member = simulation.members[victim]
        assert member.has_received(2)
        received = [
            record for record in simulation.trace.of_kind("member_received")
            if record["node"] == victim and record["seq"] == 2
        ]
        assert received[0]["via"] == "fec-decode"
        assert simulation.trace.count("fec_decode_recovered") == 1
        # The decode beat the pull epidemic: no request, no repair,
        # not even a detected loss at the victim.
        assert simulation.network.stats.sent_by_type.get("LocalRequest", 0) == 0
        assert simulation.network.stats.sent_by_type.get("Repair", 0) == 0
        assert simulation.trace.count("loss_detected") == 0

    def test_decode_completes_inflight_recovery(self):
        """A regional loss starts recoveries; the parity decode fills
        the gap and completes them (no timers left running)."""
        hierarchy = chain([3, 3])
        simulation = RrmpSimulation(
            hierarchy, **fec_setup(k=2, r=1), seed=2
        )
        sender = simulation.sender
        child = set(hierarchy.regions[1].members)
        # Message 1 misses the whole child region; message 2 arrives
        # everywhere, revealing the gap before any parity exists.
        sender.outcome = FixedHolders(set(hierarchy.nodes) - child)
        sender.multicast()
        simulation.run(duration=1.0)
        sender.outcome = FixedHolders(set(hierarchy.nodes))
        sender.multicast()  # completes the block -> parity multicast
        simulation.run(duration=2_000.0)
        assert all(simulation.members[n].has_received(1) for n in child)
        assert simulation.trace.count("fec_decode_recovered") >= 1
        completions = list(simulation.trace.of_kind("recovery_completed"))
        assert completions  # the decode completed detected recoveries
        for member in simulation.members.values():
            assert not member.recoveries

    def test_partial_tail_block_protected_by_flush(self):
        hierarchy = single_region(3)
        simulation = RrmpSimulation(hierarchy, **fec_setup(k=8, r=1), seed=3)
        sender = simulation.sender
        victim = [n for n in hierarchy.nodes if n != sender.node_id][0]
        sender.outcome = LoseSeqsAt(victim, {2})
        sender.multicast()
        sender.multicast()  # tail message, lost at the victim
        emitted = sender.flush_parity()
        assert len(emitted) == 1 and emitted[0].block_seqs == (1, 2)
        simulation.run(duration=500.0)
        assert simulation.members[victim].has_received(2)
        assert simulation.trace.count("fec_decode_recovered") == 1

    def test_encode_and_overhead_traces(self):
        hierarchy = single_region(3)
        simulation = RrmpSimulation(hierarchy, **fec_setup(k=2, r=1), seed=4)
        simulation.sender.multicast()
        simulation.sender.multicast()
        encode = simulation.trace.first("fec_encode")
        assert encode is not None
        assert encode["k"] == 2 and encode["r"] == 1
        assert encode["trigger"] == "proactive"
        overhead = simulation.trace.first("fec_parity_overhead")
        assert overhead["parity_messages"] == 1
        assert overhead["parity_bytes"] > 0
        assert overhead["data_bytes"] == 2 * 1024


class TestReactiveRepair:
    def test_request_observed_by_sender_triggers_parity(self):
        hierarchy = single_region(3)
        simulation = RrmpSimulation(
            hierarchy, **fec_setup(mode="reactive", k=2, r=1), seed=5
        )
        sender = simulation.sender
        simulation.sender.multicast()
        simulation.sender.multicast()
        assert simulation.trace.count("fec_encode") == 0  # nothing proactive
        victim = [n for n in hierarchy.nodes if n != sender.node_id][0]
        simulation.network.unicast(
            victim, sender.node_id, LocalRequest(seq=1, requester=victim)
        )
        simulation.run(duration=100.0)
        encode = simulation.trace.first("fec_encode")
        assert encode is not None and encode["trigger"] == "reactive"
        # A second request for the same block does not re-encode.
        simulation.network.unicast(
            victim, sender.node_id, LocalRequest(seq=2, requester=victim)
        )
        simulation.run(duration=100.0)
        assert simulation.trace.count("fec_encode") == 1


class TestParityThroughBufferPolicy:
    def test_parity_is_buffered_and_servable(self):
        """Parity occupies a regular buffer entry (reserved negative
        seq) and a bufferer answers a local request for it."""
        hierarchy = single_region(3)
        setup = fec_setup(k=2, r=1, c=100.0)  # always promote
        simulation = RrmpSimulation(hierarchy, **setup, seed=6)
        sender = simulation.sender
        sender.multicast()
        sender.multicast()
        simulation.run(duration=10.0)
        parity_seq_value = simulation.trace.first("fec_parity_received")["seq"]
        assert parity_seq_value < 0
        nodes = list(hierarchy.nodes)
        holder, requester = nodes[0], nodes[1]
        assert simulation.members[holder].is_buffering(parity_seq_value)
        # Simulate a member pulling the parity shard from a bufferer.
        simulation.network.unicast(
            requester, holder,
            LocalRequest(seq=parity_seq_value, requester=requester),
        )
        simulation.run(duration=100.0)
        served = [
            record for record in simulation.trace.of_kind("repair_sent")
            if record["seq"] == parity_seq_value
        ]
        assert served and served[0]["to"] == requester

    def test_parity_entry_survives_idle_when_promoted(self):
        hierarchy = single_region(3)
        setup = fec_setup(k=2, r=1, c=100.0)
        simulation = RrmpSimulation(hierarchy, **setup, seed=7)
        simulation.sender.multicast()
        simulation.sender.multicast()
        simulation.run(duration=1_000.0)  # far past the idle threshold
        parity_seq_value = simulation.trace.first("fec_parity_received")["seq"]
        bufferers = [
            m for m in simulation.alive_members()
            if m.is_buffering(parity_seq_value)
        ]
        assert bufferers  # promoted to long-term, not idle-discarded

    def test_parity_discarded_when_never_requested_and_c_zero(self):
        hierarchy = single_region(3)
        setup = fec_setup(k=2, r=1, c=0.0)
        simulation = RrmpSimulation(hierarchy, **setup, seed=8)
        simulation.sender.multicast()
        simulation.sender.multicast()
        simulation.run(duration=1_000.0)
        parity_seq_value = simulation.trace.first("fec_parity_received")["seq"]
        assert all(
            not m.is_buffering(parity_seq_value)
            for m in simulation.alive_members()
        )


class TestRegionalLossSweep:
    def test_proactive_beats_off_on_latency_and_remote_requests(self):
        """Seeded determinism of the headline claim: at one (k, r, loss)
        point proactive FEC cuts both mean recovery latency and remote
        requests versus FEC off at equal data load."""
        def measure(mode):
            hierarchy = chain([20, 20])
            simulation = RrmpSimulation(
                hierarchy,
                config=PolicySpec(remote_lambda=4.0, session_interval=50.0),
                fec=FecSpec(mode=mode, block_size=8, parity=2),
                seed=11,
            )
            simulation.sender.outcome = RegionCorrelatedOutcome(
                hierarchy, region_loss=0.3, sender=simulation.sender.node_id
            )
            for index in range(16):
                simulation.sim.at(index * 5.0, simulation.sender.multicast)
            simulation.run(until=3_000.0)
            latencies = simulation.recovery_latencies()
            assert latencies
            mean_latency = sum(latencies) / len(latencies)
            remote = simulation.network.stats.sent_by_type.get("RemoteRequest", 0)
            assert all(simulation.all_received(seq) for seq in range(1, 17))
            return mean_latency, remote

        off_latency, off_remote = measure("off")
        fec_latency, fec_remote = measure("proactive")
        assert fec_latency < off_latency
        assert fec_remote < off_remote


class TestFecOffIsInert:
    def test_off_mode_has_no_fec_state_or_traffic(self):
        hierarchy = single_region(4)
        simulation = RrmpSimulation(
            hierarchy, config=PolicySpec(session_interval=None), seed=9
        )
        simulation.sender.multicast()
        simulation.run(duration=200.0)
        assert simulation.sender.fec is None
        assert all(m.fec is None for m in simulation.members.values())
        assert simulation.network.stats.sent_by_type.get("ParityMessage", 0) == 0
        assert simulation.trace.count("fec_encode") == 0
