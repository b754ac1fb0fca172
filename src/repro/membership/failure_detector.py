"""Gossip-style failure detection (paper ref [13]).

RRMP builds on "our previous work of the Bimodal Multicast protocol and
the Gossip-style Failure Detection protocol" (van Renesse, Minsky,
Hayden — Middleware '98).  Each member keeps a heartbeat counter per
known peer; periodically it increments its own counter and gossips its
table to a few random peers, merging by maximum.  A peer whose counter
has not advanced within ``suspect_timeout`` is *suspected*.

In this reproduction the detector serves the churn experiments: crashed
members (no graceful handoff) are detected and can be pruned from
region views, and the detector's accuracy/latency is itself unit- and
property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Set

from repro.net.packet import KIND_CONTROL
from repro.net.topology import NodeId
from repro.protocol.member import RrmpMember
from repro.protocol.messages import CONTROL_WIRE_SIZE
from repro.sim.timers import PeriodicTask


@dataclass(frozen=True)
class HeartbeatGossip:
    """One gossip round's payload: the sender's full heartbeat table."""

    sender: NodeId
    heartbeats: tuple  # tuple of (member, counter) pairs
    kind: str = field(default=KIND_CONTROL, repr=False)
    wire_size: int = field(default=CONTROL_WIRE_SIZE, repr=False)


class GossipFailureDetector:
    """Per-member gossip failure detector.

    Parameters
    ----------
    member:
        The hosting member; the detector shares its network endpoint
        via the ``extra_handlers`` hook.
    peers_provider:
        Callable returning the current monitoring scope (usually the
        member's region).
    gossip_interval:
        Heartbeat/gossip period.
    suspect_timeout:
        A peer is suspected if its counter has not advanced for this
        long.  Classic sizing: several gossip intervals times log(n).
    fanout:
        Gossip targets per round.
    on_suspect:
        Optional callback invoked once per newly-suspected peer.
    """

    def __init__(
        self,
        member: RrmpMember,
        peers_provider: Callable[[], Sequence[NodeId]],
        gossip_interval: float = 20.0,
        suspect_timeout: float = 120.0,
        fanout: int = 1,
        on_suspect: Callable[[NodeId], None] = lambda _node: None,
    ) -> None:
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        if suspect_timeout <= gossip_interval:
            raise ValueError("suspect_timeout must exceed gossip_interval")
        self.member = member
        self.peers_provider = peers_provider
        self.gossip_interval = gossip_interval
        self.suspect_timeout = suspect_timeout
        self.fanout = fanout
        self.on_suspect = on_suspect
        self.heartbeats: Dict[NodeId, int] = {member.node_id: 0}
        #: Local time at which each peer's counter last advanced.
        self.last_advanced: Dict[NodeId, float] = {member.node_id: member.sim.now}
        self.suspected: Set[NodeId] = set()
        self._rng = member.streams.lazy("fd", member.node_id)
        member.extra_handlers[HeartbeatGossip] = self._on_gossip
        self._task = PeriodicTask(member.sim, gossip_interval, self._tick)
        self._task.start(phase=gossip_interval * self._rng.random())

    def stop(self) -> None:
        """Stop gossiping (member shutdown)."""
        self._task.stop()

    # ------------------------------------------------------------------
    # Gossip rounds
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self.member.alive:
            self._task.stop()
            return
        now = self.member.sim.now
        self.heartbeats[self.member.node_id] += 1
        self.last_advanced[self.member.node_id] = now
        peers = [n for n in self.peers_provider() if n != self.member.node_id]
        if peers:
            gossip = HeartbeatGossip(
                sender=self.member.node_id,
                heartbeats=tuple(sorted(self.heartbeats.items())),
            )
            for target in self._rng.sample(peers, min(self.fanout, len(peers))):
                self.member.network.unicast(self.member.node_id, target, gossip)
        self._sweep(now)

    def _on_gossip(self, gossip: HeartbeatGossip) -> None:
        now = self.member.sim.now
        for node, counter in gossip.heartbeats:
            if counter > self.heartbeats.get(node, -1):
                self.heartbeats[node] = counter
                self.last_advanced[node] = now
                if node in self.suspected:
                    # Counter advanced again: rehabilitate.
                    self.suspected.discard(node)
                    self.member.trace.emit(now, "fd_rehabilitated",
                                           node=self.member.node_id, peer=node)

    def _sweep(self, now: float) -> None:
        for node, last in self.last_advanced.items():
            if node == self.member.node_id or node in self.suspected:
                continue
            if now - last >= self.suspect_timeout:
                self.suspected.add(node)
                self.member.trace.emit(now, "fd_suspected",
                                       node=self.member.node_id, peer=node)
                self.on_suspect(node)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_suspected(self, node: NodeId) -> bool:
        """Whether this detector currently suspects *node*."""
        return node in self.suspected

    def alive_view(self) -> List[NodeId]:
        """Peers known and not suspected (plus self)."""
        return sorted(n for n in self.heartbeats if n not in self.suspected)


def attach_failure_detectors(
    members: Sequence[RrmpMember],
    gossip_interval: float = 20.0,
    suspect_timeout: float = 120.0,
    fanout: int = 1,
) -> List[GossipFailureDetector]:
    """Attach a region-scoped failure detector to each member."""
    detectors = []
    for member in members:
        detectors.append(
            GossipFailureDetector(
                member,
                peers_provider=member.region_member_ids,
                gossip_interval=gossip_interval,
                suspect_timeout=suspect_timeout,
                fanout=fanout,
            )
        )
    return detectors
