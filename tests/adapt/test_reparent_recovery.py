"""Re-parenting mid-recovery: gap tracking and recovery stay coherent.

A re-parent (:meth:`Hierarchy.set_parent`) re-points
``Region.parent_id`` while recoveries may be mid-flight.  The design relies on two properties checked here: the
recovery process re-reads ``parent_member_ids()`` every remote round
(so it redirects without being restarted), and :class:`GapTracker`
accounting is untouched by the switch — one recovery per missing seq,
one completion, no resurrection.
"""

from repro.net.topology import star
from repro.protocol.config import PolicySpec
from repro.protocol.loss_detection import GapTracker
from repro.protocol.recovery import RecoveryProcess
from repro.protocol.rrmp import RrmpSimulation
from repro.sim.randomness import RandomStreams


class SwitchableHost:
    """RecoveryHost whose parent membership can be swapped mid-run."""

    def __init__(self, sim, trace, parents, region_size=1, seed=11):
        self.node_id = 0
        self.sim = sim
        self.trace = trace
        self.config = PolicySpec(session_interval=None, remote_lambda=1.0)
        self.parents = list(parents)
        self.sent_remote = []  # (time, dst, seq)
        self._region_size = region_size
        self._streams = RandomStreams(seed)

    def parent_member_ids(self):
        return tuple(self.parents)

    def has_parent_region(self):
        return True

    def region_size(self):
        return self._region_size

    def ask_region_peer(self, rng, request):
        return None  # alone in its region

    def send_remote_request(self, dst, request):
        self.sent_remote.append((self.sim.now, dst, request.seq))

    def rtt_to(self, dst):
        return 10.0

    def recovery_rng(self):
        return self._streams.stream("recovery")


class TestReparentMidRecovery:
    def test_next_round_targets_the_new_parent(self, sim, trace):
        """In-flight recoveries redirect with no restart or signalling."""
        host = SwitchableHost(sim, trace, parents=[100, 101])
        process = RecoveryProcess(host, seq=7, detected_at=0.0)
        process.start()
        sim.run(until=25.0)
        assert host.sent_remote
        assert all(dst in (100, 101) for _, dst, _ in host.sent_remote)
        before = len(host.sent_remote)
        host.parents = [200, 201]  # the re-parent, between rounds
        sim.run(until=65.0)
        redirected = host.sent_remote[before:]
        assert redirected
        assert all(dst in (200, 201) for _, dst, _ in redirected)
        # Still the same single process, still recovering the same seq.
        assert process.active
        assert process.remote_rounds == len(host.sent_remote)

    def test_reparent_does_not_duplicate_completion(self, sim, trace):
        host = SwitchableHost(sim, trace, parents=[100])
        process = RecoveryProcess(host, seq=7, detected_at=0.0)
        process.start()
        sim.run(until=15.0)
        host.parents = [200]
        sim.run(until=35.0)
        process.complete(sim.now)
        sim.run(until=200.0)
        assert trace.count("recovery_completed") == 1
        assert not process.active
        # No further requests to either the old or the new parent.
        assert all(t <= 35.0 for t, _, _ in host.sent_remote)

    def test_reparent_onto_empty_region_keeps_probing(self, sim, trace):
        """A re-parent onto a (momentarily) empty region must not kill
        the remote phase: the idle probe picks members up later."""
        host = SwitchableHost(sim, trace, parents=[100])
        process = RecoveryProcess(host, seq=7, detected_at=0.0)
        process.start()
        sim.run(until=15.0)
        host.parents = []           # new parent region still filling
        sim.run(until=100.0)
        before = len(host.sent_remote)
        host.parents = [300]        # members arrived
        sim.run(until=300.0)
        assert len(host.sent_remote) > before
        assert host.sent_remote[-1][1] == 300
        assert process.active


class TestGapTrackerAcrossReparent:
    def test_gap_accounting_is_independent_of_the_repair_target(self, sim, trace):
        """The tracker owes nothing to topology: a seq recovered *via*
        the new parent clears exactly like one from the old parent."""
        tracker = GapTracker()
        assert tracker.on_receive(1) == []
        assert tracker.on_receive(4) == [2, 3]
        # One recovery per missing seq, started against the old parent.
        host = SwitchableHost(sim, trace, parents=[100])
        processes = {seq: RecoveryProcess(host, seq, sim.now)
                     for seq in tracker.missing()}
        for process in processes.values():
            process.start()
        sim.run(until=15.0)
        host.parents = [200]  # re-parent while both are mid-flight
        sim.run(until=35.0)
        # Seq 2 arrives via the new parent, seq 3 via a late multicast:
        # both complete their processes and leave the missing set.
        for seq in (2, 3):
            assert tracker.on_receive(seq) == []
            processes[seq].complete(sim.now)
        assert tracker.missing() == []
        assert trace.count("recovery_completed") == 2
        # A duplicate of an already-recovered seq reports nothing new
        # and must not spawn another recovery.
        assert tracker.on_receive(2) == []
        assert tracker.received_count == 4

    def test_losses_detected_after_reparent_start_fresh_recoveries(self, sim, trace):
        tracker = GapTracker()
        tracker.on_receive(1)
        host = SwitchableHost(sim, trace, parents=[100])
        host.parents = [200]  # re-parent happens first
        newly_missing = tracker.on_receive(3)
        assert newly_missing == [2]
        process = RecoveryProcess(host, 2, sim.now)
        process.start()
        assert host.sent_remote[-1][1] == 200  # straight to the new parent
        assert process.remote_rounds == 1


class TestReparentThroughTheHierarchy:
    """The same redirect, end to end: a real member, a real
    :meth:`Hierarchy.set_parent`, no fake in between."""

    def test_next_remote_round_targets_the_new_parents_members(self):
        hierarchy = star(3, [3, 3])  # regions 1 and 2 both hang off region 0
        simulation = RrmpSimulation(
            hierarchy, seed=3,
            # lambda = region size: every remote round sends its request.
            config=PolicySpec(session_interval=None, remote_lambda=3.0),
        )
        member = simulation.members[hierarchy.regions[2].members[0]]
        targets = []
        member.send_remote_request = lambda dst, request: targets.append(dst)
        member.inject_loss_detection(1)
        simulation.run(duration=300.0)
        assert targets and set(targets) <= set(hierarchy.regions[0].members)
        del targets[:]
        hierarchy.set_parent(2, 1)  # what TreeOptimizer._apply calls
        simulation.run(duration=300.0)
        assert targets and set(targets) <= set(hierarchy.regions[1].members)
        assert list(member.recoveries) == [1]  # the one process, never restarted
