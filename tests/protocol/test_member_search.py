"""Member state-machine tests: the search for bufferers (§3.3),
including a deterministic reproduction of the paper's Figure 5 walk."""

import pytest

from repro.net.latency import HierarchicalLatency
from repro.net.topology import chain
from repro.protocol.config import PolicySpec
from repro.protocol.messages import DataMessage, SearchRequest
from repro.protocol.member import RrmpMember
from repro.protocol.rrmp import RrmpSimulation
from repro.scenario.library import search_spec
from repro.scenario.materialize import build_scenario
from repro.scenario.spec import ScenarioSpec, TopologySpec, TrafficSpec
from tests.conftest import cycles_left_by


class TestSearchBasics:
    def test_request_at_bufferer_serves_instantly(self):
        """Footnote 5: search time is 0 if the request hits a bufferer."""
        found = False
        for seed in range(30):
            result = search_spec(10, bufferers=9, seed=seed).run()
            assert result.search_time is not None
            if result.search_time == 0.0:
                served = result.simulation.trace.first("remote_request_served")
                assert served.get("via") == "buffer"
                found = True
                break
        assert found, "with 9/10 bufferers some run must hit one directly"

    def test_search_finds_single_bufferer(self):
        result = search_spec(20, bufferers=1, seed=3).run()
        assert result.search_time is not None
        served = result.simulation.trace.first("remote_request_served")
        assert served.get("via") in ("search", "buffer")

    def test_requester_eventually_receives_repair(self):
        result = search_spec(20, bufferers=2, seed=5).run()
        member = result.simulation.members[result.requester]
        assert member.has_received(1)

    def test_have_reply_announcements_are_bounded(self):
        result = search_spec(30, bufferers=3, seed=2).run()
        have_replies = result.simulation.network.stats.sent_by_type.get("HaveReply", 0)
        # Each announcement is one regional multicast = n-1 unicasts.
        # Distinct bufferers contacted concurrently may each announce
        # once (a benign race), but announcements never exceed the
        # bufferer count and are never re-multicast per straggler.
        assert have_replies % 29 == 0
        assert have_replies <= 3 * 29

    def test_search_messages_stop_after_serve(self):
        result = search_spec(30, bufferers=3, seed=2, horizon=5_000.0).run()
        served = result.simulation.trace.first("remote_request_served")
        assert served is not None
        serve_time = served.time
        late = [
            record for record in result.simulation.trace.of_kind("search_forwarded")
            if record.time > serve_time + 50.0
        ]
        assert late == []

    def test_more_bufferers_search_faster_on_average(self):
        def mean_time(b):
            times = []
            for seed in range(25):
                result = search_spec(50, b, seed=seed).run()
                times.append(result.search_time)
            return sum(times) / len(times)

        assert mean_time(10) < mean_time(1)


    def test_finished_searches_leave_no_reference_cycles(self):
        """A run makes no reference cycles (the engine pauses the
        collector on that promise): every finished search dies by
        reference count, so nothing is left with the scenario alive."""
        built = build_scenario(search_spec(100, 5))
        assert cycles_left_by(built.run) == 0
        assert built.simulation.trace.count("search_joined") > 0


class TestFigure5Walkthrough:
    """Reproduce the paper's Figure 5: 4 members, 5 ms pairwise latency,
    p1 gets the remote request at t=0, p4 is the only bufferer.

    The paper's walk: p1 -> p2 (5 ms), p2 -> p3 (10 ms), p1 times out at
    10 ms and asks p4, which receives the request at 15 ms, serves the
    remote member and multicasts "I have the message" at 15 ms.
    """

    def build(self):
        hierarchy = chain([4, 1])
        config = PolicySpec(session_interval=None)
        latency = HierarchicalLatency(hierarchy, intra_one_way=5.0,
                                      inter_one_way=500.0)
        simulation = RrmpSimulation(hierarchy, config=config, seed=0,
                                    latency=latency)
        members = hierarchy.regions[0].members  # p1..p4 = nodes 0..3
        data = DataMessage(seq=1, sender=simulation.sender.node_id)
        for node in members[:3]:
            simulation.members[node].force_received(data)  # discarded
        simulation.members[members[3]].install_long_term(data)  # p4 buffers
        return simulation, members, data

    def deliver_request(self, simulation, target):
        remote = simulation.hierarchy.regions[1].members[0]
        request = SearchRequest(seq=1, waiters=(remote,), forwarder=remote)
        simulation.members[target].on_packet(request)

    def test_walkthrough_terminates_at_bufferer(self):
        simulation, members, _data = self.build()
        p1, p4 = members[0], members[3]
        # Deliver the remote search request directly to p1 at t=0.
        self.deliver_request(simulation, p1)
        simulation.run(duration=200.0)
        served = simulation.trace.first("search_served")
        assert served is not None
        assert served["node"] == p4
        # Timing: each hop is 5 ms and each timeout is one 10 ms RTT,
        # so the serve lands on a 5 ms grid within a few rounds.
        assert served.time == pytest.approx(served.time // 5 * 5.0)
        assert served.time <= 60.0

    def test_have_reply_ends_all_searches(self):
        simulation, members, _data = self.build()
        self.deliver_request(simulation, members[0])
        simulation.run(duration=500.0)
        for node in members[:3]:
            assert simulation.members[node].search.active_seqs() == []

    def test_searchers_join_over_time(self):
        """'As time goes by, more and more members will join the search.'"""
        simulation, members, _data = self.build()
        self.deliver_request(simulation, members[0])
        simulation.run(duration=500.0)
        joined = {record["node"] for record in simulation.trace.of_kind("search_joined")}
        assert members[0] in joined
        assert len(joined) >= 2


class TestOwnerHints:
    def test_redirect_after_have_reply(self):
        """In-flight stragglers are redirected, not re-seeded (§3.3)."""
        result = search_spec(40, bufferers=2, seed=7, horizon=3_000.0).run()
        simulation = result.simulation
        # Inject a second remote request after the search completed:
        requester = result.requester
        hierarchy = simulation.hierarchy
        target = [n for n in hierarchy.regions[0].members
                  if not simulation.members[n].is_buffering(1)][0]
        from repro.protocol.messages import RemoteRequest
        simulation.members[target].on_packet(RemoteRequest(seq=1, requester=requester))
        before = simulation.trace.count("search_forwarded")
        simulation.run(duration=500.0)
        after = simulation.trace.count("search_forwarded")
        # The hint short-circuits: no new search rounds needed.
        assert after == before
        assert simulation.trace.count("search_redirected") >= 1

    def test_redirect_hop_limit_breaks_stale_chains(self):
        result = search_spec(10, bufferers=1, seed=1).run()
        simulation = result.simulation
        member = simulation.members[simulation.hierarchy.regions[0].members[0]]
        # Poison the hint to point at a member that has discarded.
        victim = simulation.hierarchy.regions[0].members[1]
        member._search_owner_hint[1] = victim
        simulation.members[victim]._search_owner_hint[1] = member.node_id
        request = SearchRequest(seq=1, waiters=(99,), forwarder=99,
                                hops=member._MAX_REDIRECT_HOPS)
        member.on_packet(request)
        # At the hop limit the member must fall back to searching.
        assert member.search.is_searching(1) or member.is_buffering(1)

    def test_hash_lookups_that_miss_fall_back_to_the_bounded_search(self):
        """Fuzz finding: two hash-selected members that no longer buffer the
        message forwarded a remote request to each other forever (39,954
        lookups in 20,000 events at t = 99,960 ms), past every give-up
        bound.  A lookup counts as a hop, so the chain ends in the §3.3
        search, whose rounds are bounded."""
        spec = ScenarioSpec(
            seed=1,
            topology=TopologySpec(kind="chain", sizes=(5, 2)),
            traffic=TrafficSpec(kind="search_probe", bufferers=1),
            policy=PolicySpec(kind="hash", long_term_ttl=10.0, session_interval=None,
                              max_recovery_time=100.0, max_search_rounds=2),
        )
        built = spec.build()
        built.simulation.sim.run(max_events=20_000)
        trace = built.simulation.trace
        assert built.simulation.sim.events_fired < 20_000  # drained
        assert 0 < trace.count("lookup_forwarded") <= 4 * RrmpMember._MAX_REDIRECT_HOPS
        assert trace.count("remote_request_served") > 0
