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
from typing import Dict, List, Optional, Set

from repro.core.buffer import MessageBuffer
from repro.net.ipmulticast import MulticastOutcome, PerfectOutcome
from repro.net.latency import HierarchicalLatency, LatencyModel
from repro.net.loss import LossModel
from repro.net.packet import KIND_CONTROL
from repro.net.topology import Hierarchy, NodeId, RegionId
from repro.net.transport import Network, Packet
from repro.protocol.loss_detection import GapTracker
from repro.protocol.messages import (
    CONTROL_WIRE_SIZE,
    DATA_WIRE_SIZE,
    DataMessage,
    Seq,
    SessionMessage,
)
from repro.sim import PeriodicTask, RandomStreams, Simulator, Timer, TraceLog


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
    def on_packet(self, packet: Packet) -> None:
        """Dispatch a delivered packet."""
        payload = packet.payload
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


class TreeSimulation:
    """A fully-wired tree-based (RMTP-like) session for comparisons.

    Mirrors :class:`repro.protocol.rrmp.RrmpSimulation`'s query surface
    (``buffer_occupancy``, ``recovery_latencies``, …) so experiment code
    can treat the two protocols uniformly.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
        outcome: Optional[MulticastOutcome] = None,
        session_interval: Optional[float] = 50.0,
        timer_factor: float = 1.0,
    ) -> None:
        hierarchy.validate()
        self.hierarchy = hierarchy
        self.streams = RandomStreams(seed)
        self.sim = Simulator()
        self.trace = TraceLog()
        self.latency = latency if latency is not None else HierarchicalLatency(hierarchy)
        self.network = Network(self.sim, self.latency, loss=loss, streams=self.streams)
        self.outcome = outcome if outcome is not None else PerfectOutcome()
        self._outcome_rng = self.streams.stream("tree", "outcome")
        self.servers: Dict[RegionId, NodeId] = {}
        root_region = self._root_region()
        self.sender_node: NodeId = hierarchy.regions[root_region].members[0]
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
                is_server=is_server, repair_target=target, timer_factor=timer_factor,
            )
        self.next_seq: Seq = 1
        self._session_task: Optional[PeriodicTask] = None
        if session_interval is not None:
            self._session_task = PeriodicTask(self.sim, session_interval, self._send_session)
            self._session_task.start()

    def _root_region(self) -> RegionId:
        for region_id in sorted(self.hierarchy.regions):
            region = self.hierarchy.regions[region_id]
            if region.parent_id is None and region.members:
                return region_id
        raise ValueError("hierarchy has no root region with members")

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

    # ------------------------------------------------------------------
    # Execution and queries (RrmpSimulation-compatible subset)
    # ------------------------------------------------------------------
    def run(self, duration: Optional[float] = None, until: Optional[float] = None) -> float:
        """Advance the simulation."""
        if duration is not None:
            return self.sim.run_for(duration)
        return self.sim.run(until=until)

    def stop_session(self) -> None:
        """Stop session heartbeats."""
        if self._session_task is not None:
            self._session_task.stop()

    def member(self, node_id: NodeId) -> TreeMember:
        """The member instance for *node_id*."""
        return self.members[node_id]

    def all_received(self, seq: Seq) -> bool:
        """Whether every member has received *seq*."""
        return all(m.has_received(seq) for m in self.members.values())

    def buffer_occupancy(self) -> int:
        """Total buffered messages (concentrated at servers)."""
        return sum(m.buffered_count for m in self.members.values())

    def occupancy_by_node(self) -> Dict[NodeId, int]:
        """Per-member occupancy; shows the repair-server hotspot."""
        return {node: m.buffered_count for node, m in self.members.items()}

    def recovery_latencies(self) -> List[float]:
        """Latencies (ms) of completed recoveries."""
        return [record["latency"] for record in self.trace.of_kind("recovery_completed")]

    def control_message_count(self) -> int:
        """Control-plane transmissions so far."""
        return self.network.stats.control_messages()

    def data_message_count(self) -> int:
        """Data-plane transmissions so far."""
        return self.network.stats.data_messages()
