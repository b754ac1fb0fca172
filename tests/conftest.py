"""Shared fixtures and fakes for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.sim import RandomStreams, Simulator, TraceLog

# ``--hypothesis-profile ci``: the depth CI's live-smoke job runs the
# wire-codec properties at, from a fixed seed so a failure reproduces.
settings.register_profile("ci", max_examples=2_000, derandomize=True, deadline=None)


def send_times(stream) -> list:
    """Every send instant of a traffic generator, drained open-loop
    through the pull API from the first arrival."""
    stream.restart()
    times = []
    while (t := stream.next_send(0.0)) is not None:
        times.append(t)
    return times


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator starting at t = 0."""
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic stream factory with a fixed master seed."""
    return RandomStreams(1234)


@pytest.fixture
def trace() -> TraceLog:
    """A record-keeping trace log."""
    return TraceLog()


class FakeBufferHost:
    """Minimal BufferHost for unit-testing policies without a member."""

    def __init__(self, sim: Simulator, trace: TraceLog, node_id: int = 0,
                 region_size: int = 100, seed: int = 99) -> None:
        self.node_id = node_id
        self.sim = sim
        self.trace = trace
        self._region_size = region_size
        self._streams = RandomStreams(seed)

    def region_size(self) -> int:
        return self._region_size

    def set_region_size(self, n: int) -> None:
        self._region_size = n

    def policy_rng(self, purpose: str) -> random.Random:
        return self._streams.lazy("policy", purpose)


@pytest.fixture
def buffer_host(sim: Simulator, trace: TraceLog) -> FakeBufferHost:
    """A fake policy host bound to the shared sim/trace fixtures."""
    return FakeBufferHost(sim, trace)


class FakeSearchHost:
    """Minimal SearchHost recording forwarded requests."""

    def __init__(self, sim: Simulator, trace: TraceLog, node_id: int = 0,
                 members=None, rtt: float = 10.0, seed: int = 7) -> None:
        self.node_id = node_id
        self.sim = sim
        self.trace = trace
        self.members = list(members if members is not None else range(10))
        self.rtt = rtt
        self.sent = []  # list of (dst, SearchRequest)
        self._streams = RandomStreams(seed)

    def region_peers(self):
        return tuple(self.members), self.members.index(self.node_id)

    def send_search_request(self, dst, request):
        self.sent.append((dst, request))

    def rtt_to(self, dst):
        return self.rtt

    def search_rng(self):
        return self._streams.lazy("search")


@pytest.fixture
def search_host(sim: Simulator, trace: TraceLog) -> FakeSearchHost:
    """A fake search host with ten region members."""
    return FakeSearchHost(sim, trace)


def assert_views_match_a_fresh_scan(hierarchy):
    """Every region's shared tuple and position map equal what a scan
    of ``Region.members`` gives right now."""
    for region in hierarchy.regions.values():
        members = region.member_ids()
        assert members == tuple(region.members)
        assert members is region.member_ids()  # shared, not rebuilt per call
        for position, node in enumerate(region.members):
            assert region.peers_of(node) == (members, position)
            assert node in region
        if region.members:
            parent = hierarchy.regions.get(region.parent_id)
            assert hierarchy.parent_members(region.members[0]) == (
                tuple(parent.members) if parent is not None else ()
            )
