"""Fixtures for the invariant-oracle tests: a minimal fake simulation.

The oracle observes a simulation through a narrow surface — its trace
log, event queue, hierarchy, config and per-member introspection hooks
— so these fakes implement exactly that surface, letting invariant
tests emit hand-crafted (including deliberately inconsistent) trace
streams without building a protocol stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest

from repro.core.buffer import MessageBuffer
from repro.protocol.config import PolicySpec
from repro.sim.tracing import TraceLog


class FakeEngine:
    def __init__(self) -> None:
        self.now = 0.0
        self.pending_events = 0
        self.events_fired = 0


class FakeHierarchy:
    def __init__(self, node_regions: Optional[Dict[int, int]] = None) -> None:
        self.node_regions = dict(node_regions or {})

    def contains(self, node_id: int) -> bool:
        return node_id in self.node_regions

    def region_id_of(self, node_id: int) -> int:
        return self.node_regions[node_id]


class FakePolicy:
    def __init__(self) -> None:
        self.buffer = MessageBuffer()


class FakeMember:
    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.alive = True
        self.policy = FakePolicy()
        self._gaps: List[int] = []
        self._active: List[int] = []

    # --- oracle hooks -------------------------------------------------
    def is_buffering(self, seq: int) -> bool:
        return seq in self.policy.buffer

    def buffered_seqs(self):
        return tuple(self.policy.buffer.seqs())

    def unresolved_gaps(self):
        return tuple(self._gaps)

    def active_recovery_seqs(self):
        return tuple(self._active)


class FakeSimulation:
    """Just enough of RrmpSimulation for InvariantOracle."""

    def __init__(self, nodes: Optional[Dict[int, int]] = None,
                 c: float = 6.0) -> None:
        nodes = nodes if nodes is not None else {1: 0, 2: 0, 3: 0}
        self.trace = TraceLog()
        self.sim = FakeEngine()
        self.hierarchy = FakeHierarchy(nodes)
        self.config = PolicySpec(c=c)
        self.members = {node: FakeMember(node) for node in nodes}

    def alive_members(self):
        return [member for member in self.members.values() if member.alive]


@pytest.fixture
def fake_sim() -> FakeSimulation:
    """Three members in one region, C=6."""
    return FakeSimulation()
