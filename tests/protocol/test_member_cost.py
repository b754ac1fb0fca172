"""Count guards: a member costs what it uses.

Group construction used to derive and seed two private RNG streams per
member (76% never drawn from) and every recovery or search round
copied its region's member list to pick one peer.  These tests pin the
replacement by counts and object identity, never by timings, so the
cost cannot creep back unnoticed.

The event queue and the per-copy objects are guarded the same way
(:class:`TestEventsShareInstants`).  That the cheaper queue fires the
very same events is not re-checked here: ``sim.events_fired`` of the 11
registry scenarios is pinned, next to their trace digests, by
``tests/baselines/test_scenario_digests.py``.
"""

import dataclasses

from repro.core.buffer import BufferRecord
from repro.core.manager import TwoPhaseBufferPolicy
from repro.net.topology import chain, single_region
from repro.protocol import member as member_module
from repro.protocol.config import PolicySpec
from repro.protocol.member import RrmpMember
from repro.protocol.rrmp import RrmpSimulation
from repro.scenario.builder import scenario
from repro.scenario.materialize import build_scenario
from repro.scenario.library import scale_spec, search_spec
from tests.conftest import assert_views_match_a_fresh_scan


def member_streams(simulation, purpose=None):
    """Names of the per-member streams created so far."""
    return [name for name in simulation.streams.names()
            if name[0] == "member" and (purpose is None or purpose in name)]


class TestStreamsExistOnceDrawnFrom:
    def test_building_a_thousand_members_creates_no_member_stream(self):
        built = build_scenario(scale_spec(regions=10, members_per_region=100, messages=5))
        simulation = built.simulation
        assert len(simulation.members) == 1000
        assert member_streams(simulation) == []
        # What does exist before the first event is per group, not per member.
        assert len(simulation.streams) < 10

    def test_a_lossless_run_never_creates_a_search_stream(self):
        built = build_scenario(
            scale_spec(regions=10, members_per_region=100, messages=5, loss_rate=0.0)
        )
        built.run()
        simulation = built.simulation
        assert simulation.delivered_fraction(5) == 1.0
        assert member_streams(simulation, "search") == []
        assert member_streams(simulation, "recovery") == []
        # Every member did flip the §3.2 coin, so those streams exist.
        assert len(member_streams(simulation, "long-term")) == 1000


class TestStateBuiltOnFirstUse:
    """Search, coin and parity state exist only at members that use them."""

    def test_a_search_trial_builds_state_only_where_it_is_used(self, monkeypatch):
        asked = []
        real = RrmpMember.policy_rng

        def spy(member, purpose):
            asked.append((member.node_id, purpose))
            return real(member, purpose)

        monkeypatch.setattr(RrmpMember, "policy_rng", spy)
        built = build_scenario(search_spec(100, 5))
        built.run()
        simulation = built.simulation
        joined = {record["node"] for record in simulation.trace.of_kind("search_joined")}
        holding = {node for node, member in simulation.members.items()
                   if member._search is not None}
        assert joined and holding == joined
        # The requester's copy goes idle, but alone in its region its
        # coin is certain (P = 1): no member asks for a coin stream.
        assert simulation.trace.count("buffer_idle") >= 1
        assert asked == []
        assert all(member._parity_seen is None for member in simulation.members.values())

    def test_a_root_region_recovery_builds_no_remote_request(self):
        simulation = RrmpSimulation(single_region(50),
                                    config=PolicySpec(session_interval=None))
        member = simulation.members[5]
        member.inject_loss_detection(1)
        process = member.recoveries[1]
        assert process._remote_request is None
        assert simulation.network.stats.sent_by_type == {"LocalRequest": 1}


class TestEventsShareInstants:
    """A region acts in lockstep, so the heap orders instants (floats),
    a buffered copy is one slotted entry plus at most one closure-free
    timer, and the idle clocks a region arms for one deadline ride one
    event."""

    def test_a_lossless_stream_fires_fewer_events_than_it_buffers_copies(self):
        spec = scale_spec(regions=10, members_per_region=100, messages=5, loss_rate=0.0)
        # A TTL longer than the run, so its timers are still there to inspect.
        policy = dataclasses.replace(spec.policy, long_term_ttl=10_000.0)
        built = build_scenario(dataclasses.replace(spec, policy=policy))
        simulation = built.simulation
        sim = simulation.sim
        policies = [member.policy for member in simulation.members.values()]
        # Mid-stream: idle timers armed, session and data events queued.
        simulation.run(until=60.0)
        idle = self.clocks(policies, long_term=False)
        assert len(sim._times) > 1 and idle
        assert all(type(time) is float for time in sim._times)
        self.assert_bound_to_the_policy(idle)
        built.run()
        # Every copy's idle clock expires (5,000 buffer_idle records), yet
        # the whole run, deliveries and session traffic included, costs
        # fewer events than that: one event per instant of a region's
        # lockstep, not one per member.
        copies = simulation.trace.count("buffer_add")
        assert copies == simulation.trace.count("buffer_idle") == 5_000
        assert sim.events_fired < copies
        assert all(type(time) is float for time in sim._times)
        assert not self.clocks(policies, long_term=False)
        ttl = self.clocks(policies, long_term=True)
        assert ttl
        self.assert_bound_to_the_policy(ttl)
        for policy in policies:
            assert set(policy._clocks) == set(policy.buffer.long_term_seqs())
        entries = [entry for policy in policies for entry in policy.buffer.entries()]
        records = [record for policy in policies for record in policy.buffer.records]
        assert entries and not any(hasattr(entry, "__dict__") for entry in entries)
        assert records and all(type(record) is BufferRecord for record in records)
        assert issubclass(BufferRecord, tuple)

    @staticmethod
    def clocks(policies, long_term):
        """(policy, seq, timer) for every clock of a copy in that phase."""
        return [(policy, seq, timer) for policy in policies
                for seq, timer in policy._clocks.items()
                if policy.buffer.get(seq).long_term is long_term]

    @staticmethod
    def assert_bound_to_the_policy(clocks):
        """Each timer calls its own policy's bound method with the seq."""
        for policy, seq, timer in clocks:
            assert timer._callback.__func__ is TwoPhaseBufferPolicy._on_clock
            assert timer._callback.__self__ is policy
            assert timer._args == (seq,)


class TestPickingAPeerCopiesNothing:
    """In a 1,000-member region each round hands the picker the
    region's one shared tuple: no sequence of length >= n is built."""

    def spy_on(self, monkeypatch, module):
        seen = []
        real = module.pick_other

        def spy(rng, members, position):
            seen.append((members, position))
            return real(rng, members, position)

        monkeypatch.setattr(module, "pick_other", spy)
        return seen

    def test_local_round(self, monkeypatch):
        simulation = RrmpSimulation(single_region(1000),
                                    config=PolicySpec(session_interval=None))
        shared = simulation.hierarchy.regions[0].member_ids()
        seen = self.spy_on(monkeypatch, member_module)
        simulation.members[500].inject_loss_detection(1)
        assert len(seen) == 1
        members, position = seen[0]
        assert members is shared and members[position] == 500

    def test_remote_round_reads_the_parents_shared_tuple(self):
        simulation = RrmpSimulation(chain([1000, 2]),
                                    config=PolicySpec(session_interval=None))
        child = simulation.members[simulation.hierarchy.regions[1].members[0]]
        assert child.parent_member_ids() is simulation.hierarchy.regions[0].member_ids()
        assert child.region_member_ids() is simulation.hierarchy.regions[1].member_ids()

    def test_search_round(self, monkeypatch):
        simulation = RrmpSimulation(single_region(1000),
                                    config=PolicySpec(session_interval=None))
        shared = simulation.hierarchy.regions[0].member_ids()
        seen = self.spy_on(monkeypatch, member_module)
        simulation.members[7].search.begin(1, [3])
        assert len(seen) == 1
        members, position = seen[0]
        assert members is shared and members[position] == 7
        assert member_streams(simulation) == [("member", 7, "search")]


class TestViewsUnderMembershipChange:
    def test_mobility_handoffs_and_churn_never_leave_a_stale_view(self):
        built = (
            scenario("views", seed=5)
            .regions(3, 10)
            .uniform(20, 25.0)
            .loss(p=0.05)
            .churn(leave_rate=0.004, crash_rate=0.002, join_rate=0.006)
            .mobility(speed=8.0)
            .measure(horizon=1_500.0)
            .build()
        )
        simulation = built.simulation
        regions = simulation.hierarchy.regions
        initial = {rid: list(region.members) for rid, region in regions.items()}
        held = {rid: region.member_ids() for rid, region in regions.items()}
        for now in range(10, 1_500, 10):
            simulation.run(until=float(now))
            assert_views_match_a_fresh_scan(simulation.hierarchy)
        trace = simulation.trace
        assert trace.count("mobility_handoff") > 0
        assert trace.count("member_left") > trace.count("mobility_handoff")  # churn leaves too
        assert trace.count("member_crashed") > 0
        assert trace.count("member_joined") > trace.count("mobility_handoff")
        # Tuples handed out before the run are untouched by all of it.
        assert all(held[rid] == tuple(initial[rid]) for rid in regions)
        assert any(held[rid] != regions[rid].member_ids() for rid in regions)
