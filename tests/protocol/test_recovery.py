"""Unit tests for the local/remote recovery processes (§2.2)."""

import json
from pathlib import Path

import pytest

from repro.live.codec import encode_frame
from repro.protocol.config import PolicySpec
from repro.protocol.messages import LocalRequest, RemoteRequest
from repro.protocol.recovery import RecoveryProcess
from repro.sim.randomness import RandomStreams, pick_other

WIRE_FRAMES = Path(__file__).parents[1] / "baselines" / "wire_frames.json"


class FakeRecoveryHost:
    def __init__(self, sim, trace, config=None, neighbors=(), parents=(),
                 region_size=None, rtt=10.0, seed=11, has_parent=None):
        self.node_id = 0
        self.sim = sim
        self.trace = trace
        self.config = config if config is not None else PolicySpec(session_interval=None)
        self.neighbors = list(neighbors)
        self.parents = list(parents)
        #: Structural parent-region existence; defaults to "has one
        #: iff any parent members were given" (the common case).
        self.has_parent = bool(parents) if has_parent is None else has_parent
        self._region_size = (
            region_size if region_size is not None else len(self.neighbors) + 1
        )
        self.rtt = rtt
        self.sent_local = []   # (time, dst, seq)
        self.sent_remote = []  # (time, dst, seq)
        self._streams = RandomStreams(seed)

    def parent_member_ids(self):
        return tuple(self.parents)

    def has_parent_region(self):
        return self.has_parent

    def region_size(self):
        return self._region_size

    def ask_region_peer(self, rng, request):
        members = (self.node_id, *self.neighbors)
        if len(members) < 2:
            return None
        dst = pick_other(rng, members, 0)
        self.send_local_request(dst, request)
        return dst, self.rtt

    def send_local_request(self, dst, request):
        self.sent_local.append((self.sim.now, dst, request.seq))

    def send_remote_request(self, dst, request):
        self.sent_remote.append((self.sim.now, dst, request.seq))

    def rtt_to(self, dst):
        return self.rtt

    def recovery_rng(self):
        return self._streams.stream("recovery")


class TestLocalPhase:
    def test_first_request_sent_immediately(self, sim, trace):
        host = FakeRecoveryHost(sim, trace, neighbors=[1, 2, 3])
        process = RecoveryProcess(host, seq=7, detected_at=0.0)
        process.start()
        assert len(host.sent_local) == 1
        time, dst, seq = host.sent_local[0]
        assert time == 0.0 and seq == 7 and dst in (1, 2, 3)

    def test_retry_every_rtt(self, sim, trace):
        host = FakeRecoveryHost(sim, trace, neighbors=[1, 2, 3])
        RecoveryProcess(host, 7, 0.0).start()
        sim.run(until=35.0)
        assert [t for t, _, _ in host.sent_local] == [0.0, 10.0, 20.0, 30.0]

    def test_targets_are_random_neighbors(self, sim, trace):
        host = FakeRecoveryHost(sim, trace, neighbors=list(range(1, 20)))
        RecoveryProcess(host, 7, 0.0).start()
        sim.run(until=200.0)
        targets = {dst for _, dst, _ in host.sent_local}
        assert len(targets) > 3

    def test_no_neighbors_no_local_requests(self, sim, trace):
        host = FakeRecoveryHost(sim, trace, neighbors=[])
        RecoveryProcess(host, 7, 0.0).start()
        sim.run(until=100.0)
        assert host.sent_local == []

    def test_local_phase_resumes_when_churn_adds_neighbors(self, sim, trace):
        """A member alone in its region re-probes instead of going
        silent: when churn adds a neighbour, local recovery resumes."""
        host = FakeRecoveryHost(sim, trace, neighbors=[])
        process = RecoveryProcess(host, 7, 0.0)
        process.start()
        sim.run(until=100.0)
        assert host.sent_local == []
        host.neighbors = [5]  # a peer joins the region
        sim.run(until=300.0)
        assert host.sent_local  # the idle probe picked the newcomer up
        assert all(dst == 5 for _, dst, _ in host.sent_local)
        # Probe cadence: first request lands on the next idle-threshold
        # boundary (T=40 by default) after the join.
        assert host.sent_local[0][0] == pytest.approx(120.0)

    def test_idle_probe_stops_on_completion(self, sim, trace):
        host = FakeRecoveryHost(sim, trace, neighbors=[])
        process = RecoveryProcess(host, 7, 0.0)
        process.start()
        sim.run(until=50.0)
        process.complete(sim.now)
        assert sim.pending_events == 0  # no orphaned probe timers
        host.neighbors = [5]
        sim.run(until=500.0)
        assert host.sent_local == []

    def test_timer_factor_stretches_rounds(self, sim, trace):
        config = PolicySpec(session_interval=None, timer_factor=2.0)
        host = FakeRecoveryHost(sim, trace, config=config, neighbors=[1, 2])
        RecoveryProcess(host, 7, 0.0).start()
        sim.run(until=25.0)
        assert [t for t, _, _ in host.sent_local] == [0.0, 20.0]


class TestRemotePhase:
    def test_no_parent_region_does_nothing(self, sim, trace):
        host = FakeRecoveryHost(sim, trace, neighbors=[1], parents=[])
        process = RecoveryProcess(host, 7, 0.0)
        process.start()
        sim.run(until=100.0)
        assert host.sent_remote == []
        # Structurally parentless (root region): the phase stays silent
        # — no idle probe keeps the event queue alive forever.
        assert process._remote_event is None

    def test_remote_phase_resumes_when_parent_region_refills(self, sim, trace):
        """An emptied parent region refilling under churn revives the
        remote phase (single-member region: every round sends)."""
        host = FakeRecoveryHost(sim, trace, neighbors=[], parents=[],
                                region_size=1, has_parent=True)
        process = RecoveryProcess(host, 7, 0.0)
        process.start()
        sim.run(until=100.0)
        assert host.sent_remote == []
        host.parents = [9]
        sim.run(until=300.0)
        assert host.sent_remote
        assert all(dst == 9 for _, dst, _ in host.sent_remote)
        assert process.remote_rounds >= 1

    def test_probability_is_lambda_over_n(self, sim, trace):
        """§2.2: region-wide expected remote requests per round is λ."""
        config = PolicySpec(session_interval=None, remote_lambda=1.0)
        sent = 0
        for seed in range(120):
            local_sim = type(sim)()
            host = FakeRecoveryHost(local_sim, trace, config=config,
                                    neighbors=list(range(1, 50)),
                                    parents=[100, 101], region_size=50, seed=seed)
            RecoveryProcess(host, 7, 0.0).start()
            local_sim.run(until=95.0)  # 10 rounds of RTT=10
            sent += len(host.sent_remote)
        # Per-member per-round probability 1/50; 1200 rounds -> ~24 sends.
        assert 8 <= sent <= 50

    def test_single_member_region_always_sends(self, sim, trace):
        host = FakeRecoveryHost(sim, trace, neighbors=[], parents=[9],
                                region_size=1)
        RecoveryProcess(host, 7, 0.0).start()
        assert len(host.sent_remote) == 1

    def test_remote_timer_runs_even_without_send(self, sim, trace):
        """The remote phase keeps cycling whether or not it sent (§2.2)."""
        config = PolicySpec(session_interval=None, remote_lambda=0.0)
        host = FakeRecoveryHost(sim, trace, config=config, neighbors=[],
                                parents=[9], region_size=10)
        process = RecoveryProcess(host, 7, 0.0)
        process.start()
        sim.run(until=55.0)
        assert host.sent_remote == []
        assert process.remote_rounds >= 5


class TestCompletion:
    def test_complete_stops_retries_and_traces_latency(self, sim, trace):
        host = FakeRecoveryHost(sim, trace, neighbors=[1, 2])
        process = RecoveryProcess(host, 7, 0.0)
        process.start()
        sim.at(25.0, process.complete, 25.0)
        sim.run(until=100.0)
        assert [t for t, _, _ in host.sent_local] == [0.0, 10.0, 20.0]
        record = trace.first("recovery_completed")
        assert record["latency"] == pytest.approx(25.0)
        assert record["seq"] == 7
        assert record["local_rounds"] == 3

    def test_complete_is_idempotent(self, sim, trace):
        host = FakeRecoveryHost(sim, trace, neighbors=[1])
        process = RecoveryProcess(host, 7, 0.0)
        process.start()
        process.complete(5.0)
        process.complete(6.0)
        assert trace.count("recovery_completed") == 1

    def test_cancel_is_silent(self, sim, trace):
        host = FakeRecoveryHost(sim, trace, neighbors=[1])
        process = RecoveryProcess(host, 7, 0.0)
        process.start()
        process.cancel()
        sim.run(until=100.0)
        assert trace.count("recovery_completed") == 0
        assert len(host.sent_local) == 1  # only the initial round

    def test_cancel_is_distinct_from_completion(self, sim, trace):
        """Shutdown-cancelled recoveries must not look like successes
        to metrics: ``cancelled`` is set, ``completed`` is not."""
        host = FakeRecoveryHost(sim, trace, neighbors=[1])
        process = RecoveryProcess(host, 7, 0.0)
        process.start()
        process.cancel()
        assert process.cancelled
        assert not process.completed
        assert not process.failed
        assert not process.active
        # A late arrival cannot resurrect a cancelled recovery.
        process.complete(50.0)
        assert not process.completed
        assert trace.count("recovery_completed") == 0


class TestGiveUp:
    def test_deadline_records_violation(self, sim, trace):
        config = PolicySpec(session_interval=None, max_recovery_time=50.0)
        host = FakeRecoveryHost(sim, trace, config=config, neighbors=[1, 2])
        RecoveryProcess(host, 7, 0.0).start()
        sim.run(until=200.0)
        assert trace.count("reliability_violation") == 1
        # No requests after the deadline.
        assert all(t <= 50.0 for t, _, _ in host.sent_local)

    def test_no_deadline_retries_forever(self, sim, trace):
        host = FakeRecoveryHost(sim, trace, neighbors=[1, 2])
        RecoveryProcess(host, 7, 0.0).start()
        sim.run(until=1_000.0)
        assert trace.count("reliability_violation") == 0
        assert len(host.sent_local) == 101


class TestRequestsOnTheWire:
    def test_every_round_resends_one_request_that_frames_as_before(self, sim, trace):
        """A process builds its requests once: every round's request
        equals a fresh one and encodes to the golden wire bytes."""
        host = FakeRecoveryHost(sim, trace, neighbors=[8, 9], parents=[64], region_size=1)
        host.node_id = 7
        local, remote = [], []
        host.send_local_request = lambda dst, request: local.append(request)
        host.send_remote_request = lambda dst, request: remote.append(request)
        RecoveryProcess(host, 17, 0.0).start()
        sim.run(until=45.0)
        assert len(local) == len(remote) == 5
        assert all(request == LocalRequest(seq=17, requester=7) for request in local)
        assert all(request == RemoteRequest(seq=17, requester=7) for request in remote)
        golden = json.loads(WIRE_FRAMES.read_text(encoding="utf-8"))
        assert {encode_frame(7, 8, request, 40.25).hex() for request in local} \
            == {golden["LocalRequest"]}
        assert {encode_frame(7, 64, request, 41.0).hex() for request in remote} \
            == {golden["RemoteRequest"]}
