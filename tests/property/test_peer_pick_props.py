"""The flattened peer pick draws what ``randrange`` drew.

:func:`repro.sim.randomness.pick_other` takes its index from the
``getrandbits`` rejection loop that ``random.Random.randrange(n)`` runs,
through public names only, so a :class:`~repro.sim.randomness.LazyStream`
draws it as a real stream does.  For every region size >= 2, skipped
position and seed it must return the peer the ``randrange`` pick
returned and leave the generator in the state that pick left, on both
kinds of stream (CPython's loop is checked on every Python the suite
runs on).  The member's one-call round, ``RrmpMember.ask_region_peer``,
must pick that peer from its region's shared tuple, send it one request
and return the round-trip to it.
"""

import random

from hypothesis import example, given
from hypothesis import strategies as st

from repro.net.topology import single_region
from repro.protocol.config import PolicySpec
from repro.protocol.messages import LocalRequest
from repro.protocol.rrmp import RrmpSimulation
from repro.sim.randomness import RandomStreams, pick_other

DRAWS = 4


def randrange_pick(rng, members, position):
    """The pick as ``randrange`` made it, before the loop was flattened."""
    k = rng.randrange(len(members) - 1)
    return members[k + (k >= position)]


# A power of two of peers draws one spare bit and rejects about half
# its draws: the loop's edge.
@given(seed=st.integers(0, 2**64 - 1), size=st.integers(2, 600), position=st.integers(0, 599))
@example(seed=0, size=2, position=1)
@example(seed=3, size=17, position=16)
@example(seed=5, size=257, position=0)
def test_same_peer_and_state_as_randrange_on_a_real_stream(seed, size, position):
    position %= size
    members = tuple(range(100, 100 + size))
    flat, reference = random.Random(seed), random.Random(seed)
    for _ in range(DRAWS):
        assert pick_other(flat, members, position) == randrange_pick(reference, members, position)
        assert flat.getstate() == reference.getstate()


@given(seed=st.integers(0, 2**63), size=st.integers(2, 600), position=st.integers(0, 599))
def test_same_peer_and_state_on_a_lazy_stream(seed, size, position):
    position %= size
    members = tuple(range(size))
    name = ("member", position, "recovery")
    lazy_streams, real_streams = RandomStreams(seed), RandomStreams(seed)
    lazy, reference = lazy_streams.lazy(*name), real_streams.stream(*name)
    for _ in range(DRAWS):
        assert pick_other(lazy, members, position) == randrange_pick(reference, members, position)
    assert lazy_streams.stream(*name).getstate() == reference.getstate()


@given(seed=st.integers(0, 2**63), size=st.integers(1, 40), node=st.integers(0, 39))
def test_the_member_asks_the_peer_the_randrange_pick_names(seed, size, node):
    node %= size
    simulation = RrmpSimulation(single_region(size), config=PolicySpec(session_interval=None))
    member = simulation.members[node]
    members = simulation.hierarchy.regions[0].member_ids()
    rng, reference = random.Random(seed), random.Random(seed)
    request = LocalRequest(seq=1, requester=node)
    asked = member.ask_region_peer(rng, request)
    sent = simulation.network.stats.sent_by_type
    if size == 1:
        assert asked is None and sent == {} and rng.getstate() == reference.getstate()
        return
    target = randrange_pick(reference, members, members.index(node))
    assert asked == (target, simulation.network.rtt(node, target))
    assert rng.getstate() == reference.getstate()
    assert sent == {"LocalRequest": 1}
