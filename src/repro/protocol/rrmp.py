"""High-level facade: build and run a complete RRMP simulation.

:class:`RrmpSimulation` assembles the engine, network, members and
sender for a given hierarchy, wiring every component to one master
seed.  It is the main entry point of the public API::

    from repro import RrmpSimulation, single_region, FixedHolderCount

    sim = RrmpSimulation(single_region(100), seed=42,
                         outcome=FixedHolderCount(10))
    sim.sender.multicast()
    sim.run(duration=500.0)
    assert sim.all_received(1)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.policies import BufferPolicy
from repro.core.manager import TwoPhaseBufferPolicy
from repro.net.ipmulticast import MulticastOutcome
from repro.net.latency import HierarchicalLatency, LatencyModel
from repro.net.loss import LossModel
from repro.net.topology import Hierarchy, NodeId
from repro.net.transport import Network
from repro.protocol.config import RrmpConfig
from repro.protocol.member import RrmpMember
from repro.protocol.messages import Seq
from repro.protocol.sender import RrmpSender
from repro.sim import RandomStreams, Simulator, TraceLog

#: Builds a buffer policy for a given node; lets experiments swap the
#: paper's two-phase policy for any baseline.
PolicyFactory = Callable[[NodeId], BufferPolicy]


def two_phase_policy_factory(config: RrmpConfig) -> PolicyFactory:
    """Policy factory for the paper's two-phase algorithm (§3)."""

    def build(_node_id: NodeId) -> BufferPolicy:
        return TwoPhaseBufferPolicy(
            idle_threshold=config.idle_threshold,
            long_term_c=config.long_term_c,
            long_term_ttl=config.long_term_ttl,
        )

    return build


def default_sender_node(hierarchy: Hierarchy) -> NodeId:
    """The conventional sender: first member of the first root region.

    Shared by the simulated facade and the live runtime so one spec
    elects the same sender in both worlds.
    """
    for region_id in sorted(hierarchy.regions):
        region = hierarchy.regions[region_id]
        if region.parent_id is None and region.members:
            return region.members[0]
    raise ValueError("hierarchy has no root region with members")


class MemberGroup:
    """Query surface shared by every fully-wired RRMP group.

    Mixed into :class:`RrmpSimulation` (members over the simulated
    network) and :class:`repro.live.session.LiveSession` (members over
    asyncio UDP).  Implementations provide ``members`` (dict of
    :class:`~repro.protocol.member.RrmpMember`), ``trace`` (a
    :class:`~repro.sim.TraceLog`), ``network`` (anything with a
    ``stats`` :class:`~repro.net.transport.NetworkStats`) and — for
    building members — ``sim`` (the clock), ``hierarchy``, ``config``,
    ``streams`` and ``_policy_factory``; everything here derives from
    those, which is what lets experiment code, the scenario installer
    and the invariant oracle treat a live group exactly like a
    simulated one.
    """

    members: Dict[NodeId, RrmpMember]
    #: Whether members of the hierarchy are hosted elsewhere (only a live
    #: session can be one shard of a group).
    sharded = False

    def _new_member(self, node: NodeId) -> RrmpMember:
        """Build and register the member for *node*, wired to this
        group's clock, network, streams, trace and policy factory."""
        member = self.members[node] = RrmpMember(
            node_id=node,
            sim=self.sim,
            network=self.network,
            hierarchy=self.hierarchy,
            config=self.config,
            streams=self.streams,
            trace=self.trace,
            policy=self._policy_factory(node),
        )
        return member

    def add_member(self, region_id: int) -> RrmpMember:
        """A new receiver joins *region_id* mid-session (IP-multicast
        group model: no coordination with existing members, §1)."""
        member = self._new_member(self.hierarchy.add_member(region_id))
        self.trace.emit(
            self.sim.now, "member_joined", node=member.node_id, region=region_id
        )
        return member

    def member(self, node_id: NodeId) -> RrmpMember:
        """The member instance for *node_id*."""
        return self.members[node_id]

    def alive_members(self) -> List[RrmpMember]:
        """Members that have not left or crashed."""
        return [member for member in self.members.values() if member.alive]

    def received_count(self, seq: Seq) -> int:
        """How many alive members have received message *seq*."""
        return sum(1 for m in self.alive_members() if m.has_received(seq))

    def buffering_count(self, seq: Seq) -> int:
        """How many alive members currently buffer message *seq*."""
        return sum(1 for m in self.alive_members() if m.is_buffering(seq))

    def all_received(self, seq: Seq) -> bool:
        """Whether every alive member has received *seq*."""
        return all(m.has_received(seq) for m in self.alive_members())

    def delivered_fraction(self, message_count: int) -> float:
        """Fraction of (alive member, message 1..*message_count*) pairs
        delivered so far; 1.0 when there is nothing to deliver."""
        members = self.alive_members()
        if not members or message_count == 0:
            return 1.0
        delivered = sum(
            1
            for member in members
            for seq in range(1, message_count + 1)
            if member.has_received(seq)
        )
        return delivered / (len(members) * message_count)

    def buffer_occupancy(self) -> int:
        """Total buffered messages across all alive members."""
        return sum(m.buffered_count for m in self.alive_members())

    def occupancy_by_node(self) -> Dict[NodeId, int]:
        """Current per-member buffer occupancy."""
        return {m.node_id: m.buffered_count for m in self.alive_members()}

    # ------------------------------------------------------------------
    # Trace-derived statistics
    # ------------------------------------------------------------------
    def recovery_latencies(self) -> List[float]:
        """Latencies (ms) of all completed recoveries."""
        return [record["latency"] for record in self.trace.of_kind("recovery_completed")]

    def violation_count(self) -> int:
        """Recoveries that gave up (reliability violations, §5); the
        log's tally, so the same whether or not records are retained."""
        return self.trace.count("reliability_violation")

    def control_message_count(self) -> int:
        """Control-plane transmissions so far (traffic overhead)."""
        return self.network.stats.control_messages()

    def data_message_count(self) -> int:
        """Data-plane transmissions so far."""
        return self.network.stats.data_messages()


class RrmpSimulation(MemberGroup):
    """A fully-wired RRMP group over a simulated network.

    Parameters
    ----------
    hierarchy:
        Regions and parent links (see :mod:`repro.net.topology`
        builders).  The simulation registers one member per node.
    config:
        Protocol parameters; defaults to :class:`RrmpConfig` defaults.
    seed:
        Master seed; every random decision derives from it.
    latency:
        Latency model; defaults to :class:`HierarchicalLatency` with
        the paper's 5 ms intra-region one-way delay.
    loss:
        Optional transport loss model (default: lossless, the paper's
        §4 assumption for requests and repairs).
    outcome:
        IP-multicast outcome model for the sender (default: perfect).
    policy_factory:
        Buffer-policy builder per node (default: the two-phase policy
        configured from *config*).
    sender_node:
        Which member is the sender; defaults to the first member of a
        root region (a region with no parent).
    keep_trace:
        Retain trace records in memory (on for experiments; turn off
        for long soak runs).
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        config: Optional[RrmpConfig] = None,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
        outcome: Optional[MulticastOutcome] = None,
        policy_factory: Optional[PolicyFactory] = None,
        sender_node: Optional[NodeId] = None,
        keep_trace: bool = True,
    ) -> None:
        hierarchy.validate()
        self.hierarchy = hierarchy
        self.config = config if config is not None else RrmpConfig()
        self.streams = RandomStreams(seed)
        self.sim = Simulator()
        self.trace = TraceLog(keep_records=keep_trace)
        self.latency = latency if latency is not None else HierarchicalLatency(hierarchy)
        self.network = Network(self.sim, self.latency, loss=loss, streams=self.streams)
        if policy_factory is None:
            policy_factory = two_phase_policy_factory(self.config)
        self._policy_factory = policy_factory
        self.members: Dict[NodeId, RrmpMember] = {}
        for node in hierarchy.nodes:
            self._new_member(node)
        if sender_node is None:
            sender_node = default_sender_node(hierarchy)
        self.sender = RrmpSender(self.members[sender_node], outcome=outcome)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration: Optional[float] = None, until: Optional[float] = None) -> float:
        """Advance the simulation; returns the new simulated time."""
        if duration is not None:
            return self.sim.run_for(duration)
        return self.sim.run(until=until)

    def drain(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain (sessions stopped first if needed)."""
        self.sender.stop()
        return self.sim.drain(max_events=max_events)

    # Group-level queries (member, alive_members, delivered_fraction,
    # occupancy, trace statistics, ...) are inherited from MemberGroup,
    # shared with the live UDP runtime.
