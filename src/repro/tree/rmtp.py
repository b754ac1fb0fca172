"""Tree-based repair-server baseline (RMTP-like, paper ref [12]).

In tree-based reliable multicast (RMTP, LBRRM, TMTP — §1/§2), each
local region designates a *repair server*: receivers NACK their region
server, the server retransmits from its buffer, and a server missing a
message NACKs the server of its parent region.  The buffering
consequence is what this reproduction cares about (§1): **the repair
server buffers every packet of the session** ("the RMTP protocol …
buffers the entire file"), while ordinary receivers buffer nothing, so
one member per region carries the whole load — the contrast to RRMP's
spread-out two-phase scheme.

The implementation reuses the simulation substrate (engine, network,
topology, gap tracking, session messages) and emits the same trace
kinds as RRMP (``recovery_completed``, ``buffer_add``), so the
policy-comparison experiments read both protocols with one code path.
Flow control and ACK aggregation are out of scope: they do not affect
buffer occupancy or recovery-latency shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.core.buffer import MessageBuffer
from repro.net.ipmulticast import MulticastOutcome, PerfectOutcome
from repro.net.latency import HierarchicalLatency, LatencyModel
from repro.net.loss import LossModel
from repro.net.packet import KIND_CONTROL
from repro.net.topology import Hierarchy, NodeId, RegionId
from repro.net.transport import Network
from repro.protocol.config import PolicySpec
from repro.protocol.loss_detection import GapTracker
from repro.protocol.messages import (
    CONTROL_WIRE_SIZE,
    DATA_WIRE_SIZE,
    DataMessage,
    Seq,
    SessionMessage,
)
from repro.protocol.rrmp import MemberGroup, default_sender_node
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.timers import PeriodicTask, Timer
from repro.sim.tracing import TraceLog


@dataclass(frozen=True)
class Nack:
    """Negative acknowledgement sent to a repair server."""

    seq: Seq
    requester: NodeId
    kind: str = field(default=KIND_CONTROL, repr=False)
    wire_size: int = field(default=CONTROL_WIRE_SIZE, repr=False)


@dataclass(frozen=True)
class TreeRepair:
    """Retransmission from a repair server."""

    data: DataMessage
    responder: NodeId
    kind: str = field(default="data", repr=False)
    wire_size: int = field(default=DATA_WIRE_SIZE, repr=False)

    @property
    def seq(self) -> Seq:
        """Sequence number of the repaired message."""
        return self.data.seq


class TreeMember:
    """A receiver in the tree-based baseline (possibly a repair server)."""

    def __init__(
        self,
        node_id: NodeId,
        sim: Simulator,
        network: Network,
        hierarchy: Hierarchy,
        trace: TraceLog,
        is_server: bool,
        repair_target: Optional[NodeId],
        timer_factor: float = 1.0,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.hierarchy = hierarchy
        self.trace = trace
        self.is_server = is_server
        #: Where this node sends NACKs: its region server for ordinary
        #: receivers, the parent region's server for servers (None for
        #: the root server, which is the sender itself).
        self.repair_target = repair_target
        self.timer_factor = timer_factor
        self.alive = True
        self.gap = GapTracker()
        self.buffer = MessageBuffer()
        #: Requesters waiting for messages this server hasn't got yet.
        self.waiting: Dict[Seq, Set[NodeId]] = {}
        self._nack_timers: Dict[Seq, Timer] = {}
        self._detect_times: Dict[Seq, float] = {}
        network.register(node_id, self)

    # ------------------------------------------------------------------
    # Network entry
    # ------------------------------------------------------------------
    def on_packet(self, payload: Any) -> None:
        """Dispatch a delivered payload."""
        if isinstance(payload, DataMessage):
            self.handle_data(payload)
        elif isinstance(payload, TreeRepair):
            self.handle_data(payload.data)
        elif isinstance(payload, Nack):
            self._on_nack(payload)
        elif isinstance(payload, SessionMessage):
            self._detect_missing(self.gap.on_advertise(payload.max_seq))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown payload type {type(payload).__name__}")

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def handle_data(self, data: DataMessage) -> None:
        """Receive a message (original multicast or repair)."""
        seq = data.seq
        if self.gap.is_received(seq):
            return
        newly_missing = self.gap.on_receive(seq)
        self.trace.emit(self.sim.now, "member_received", node=self.node_id,
                        seq=seq, via="tree")
        detect_time = self._detect_times.pop(seq, None)
        timer = self._nack_timers.pop(seq, None)
        if timer is not None:
            timer.cancel()
        if detect_time is not None:
            self.trace.emit(self.sim.now, "recovery_completed", node=self.node_id,
                            seq=seq, latency=self.sim.now - detect_time,
                            local_rounds=0, remote_rounds=0, remote_requests=0)
        if self.is_server:
            # The defining behaviour: servers buffer everything, for
            # the whole session (§1's RMTP description).
            self.buffer.add(data, self.sim.now)
            self.trace.emit(self.sim.now, "buffer_add", node=self.node_id, seq=seq)
            for requester in sorted(self.waiting.pop(seq, set())):
                self._send_repair(requester, data)
        self._detect_missing(newly_missing)

    def _detect_missing(self, seqs: List[Seq]) -> None:
        for seq in seqs:
            if seq in self._detect_times:
                continue
            self._detect_times[seq] = self.sim.now
            self.trace.emit(self.sim.now, "loss_detected", node=self.node_id, seq=seq)
            self._send_nack(seq)

    def _send_nack(self, seq: Seq) -> None:
        if self.repair_target is None:
            # Root server (= sender): nobody upstream to ask.  In a real
            # deployment the sender always has its own data; reaching
            # this branch means the message was never sent.
            return
        self.network.unicast(self.node_id, self.repair_target,
                             Nack(seq=seq, requester=self.node_id))
        timer = self._nack_timers.get(seq)
        if timer is None:
            timer = Timer(self.sim, self._send_nack, seq)
            self._nack_timers[seq] = timer
        timer.start(self.network.rtt(self.node_id, self.repair_target) * self.timer_factor)

    # ------------------------------------------------------------------
    # Server-side NACK handling
    # ------------------------------------------------------------------
    def _on_nack(self, nack: Nack) -> None:
        if not self.is_server:
            return
        data = self.buffer.data(nack.seq)
        if data is not None:
            self._send_repair(nack.requester, data)
        else:
            # Not here yet: queue the requester; our own NACK process
            # toward the parent server is already running (or will be,
            # once we detect the gap).
            self.waiting.setdefault(nack.seq, set()).add(nack.requester)
            self._detect_missing(self.gap.on_advertise(nack.seq))

    def _send_repair(self, requester: NodeId, data: DataMessage) -> None:
        self.network.unicast(self.node_id, requester,
                             TreeRepair(data=data, responder=self.node_id))
        self.trace.emit(self.sim.now, "repair_sent", node=self.node_id,
                        seq=data.seq, to=requester, scope="tree")

    # ------------------------------------------------------------------
    # Introspection (mirrors RrmpMember for the comparison harness)
    # ------------------------------------------------------------------
    @property
    def buffered_count(self) -> int:
        """Messages currently buffered (non-zero only at servers)."""
        return self.buffer.occupancy

    def has_received(self, seq: Seq) -> bool:
        """Whether this member has received *seq*."""
        return self.gap.is_received(seq)

    def is_buffering(self, seq: Seq) -> bool:
        """Whether *seq* sits in this member's buffer."""
        return seq in self.buffer


class TreeSender:
    """The session source as the scenario installer and the run plan
    drive it: the tree's ``multicast``, the sending ``member``,
    ``max_seq`` and ``stop`` (the heartbeat)."""

    def __init__(self, tree: "TreeSimulation", heartbeat: Optional[PeriodicTask]) -> None:
        self._tree = tree
        self.multicast = tree.multicast
        self.member = tree.members[tree.sender_node]
        self.stop = heartbeat.stop if heartbeat is not None else lambda: None

    @property
    def max_seq(self) -> Seq:
        """Highest sequence number multicast so far (0 before any send)."""
        return self._tree.next_seq - 1


class TreeSimulation(MemberGroup):
    """A fully-wired tree-based (RMTP-like) session for comparisons.

    Shares :class:`~repro.protocol.rrmp.MemberGroup`'s query surface
    (``buffer_occupancy``, ``recovery_latencies``, …) and a ``sender``
    with :class:`~repro.protocol.rrmp.RrmpSimulation`, so one spec
    installs and reads the same on both protocols.  Its members never
    leave.  Of *config* it reads the session interval and the NACK
    timer factor.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
        outcome: Optional[MulticastOutcome] = None,
        config: PolicySpec = PolicySpec(),
    ) -> None:
        hierarchy.validate()
        self.hierarchy = hierarchy
        self.streams = RandomStreams(seed)
        self.sim = Simulator()
        self.trace = TraceLog()
        self.latency = latency if latency is not None else HierarchicalLatency(hierarchy)
        self.network = Network(self.sim, self.latency, loss=loss, streams=self.streams)
        self.outcome = outcome if outcome is not None else PerfectOutcome()
        self._outcome_rng = self.streams.lazy("tree", "outcome")
        self.servers: Dict[RegionId, NodeId] = {}
        self.sender_node: NodeId = default_sender_node(hierarchy)
        root_region = hierarchy.region_id_of(self.sender_node)
        for region_id in sorted(hierarchy.regions):
            members = hierarchy.regions[region_id].members
            if members:
                self.servers[region_id] = (
                    self.sender_node if region_id == root_region else members[0]
                )
        self.members: Dict[NodeId, TreeMember] = {}
        for node in hierarchy.nodes:
            region = hierarchy.region_of(node)
            server = self.servers[region.region_id]
            if node == server:
                parent = (hierarchy.regions[region.parent_id]
                          if region.parent_id is not None else None)
                target = self.servers[parent.region_id] if parent is not None else None
                is_server = True
            else:
                target, is_server = server, False
            self.members[node] = TreeMember(
                node_id=node, sim=self.sim, network=self.network,
                hierarchy=hierarchy, trace=self.trace,
                is_server=is_server, repair_target=target,
                timer_factor=config.timer_factor,
            )
        self.next_seq: Seq = 1
        heartbeat = None
        if config.session_interval is not None:
            heartbeat = PeriodicTask(self.sim, config.session_interval, self._send_session)
            heartbeat.start()
        self.sender = TreeSender(self, heartbeat)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def multicast(self, payload: object = None) -> DataMessage:
        """Multicast the next message through the outcome model."""
        data = DataMessage(seq=self.next_seq, sender=self.sender_node, payload=payload)
        self.next_seq += 1
        group = self.hierarchy.nodes
        holders = set(self.outcome.holders(data.seq, group, self._outcome_rng))
        holders.add(self.sender_node)
        self.members[self.sender_node].handle_data(data)
        targets = [n for n in group if n in holders and n != self.sender_node]
        self.network.multicast(self.sender_node, targets, data, group="session")
        return data

    def _send_session(self) -> None:
        if self.next_seq <= 1:
            return
        message = SessionMessage(sender=self.sender_node, max_seq=self.next_seq - 1)
        group = [n for n in self.hierarchy.nodes if n != self.sender_node]
        self.network.multicast(self.sender_node, group, message, group="session")
