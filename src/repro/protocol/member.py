"""The RRMP receiver state machine.

:class:`RrmpMember` ties every piece of the reproduction together: it
receives packets from the network, detects losses (§2.1), runs local
and remote recovery (§2.2), feeds its buffer policy (§3.1–3.2), relays
repairs for downstream waiters, re-multicasts remote repairs in its
region, answers searches for bufferers (§3.3) and hands its long-term
buffer off when it leaves (§3.2).

The member implements three narrow host protocols —
:class:`repro.core.policies.BufferHost`,
:class:`repro.core.search.SearchHost` and
:class:`repro.protocol.recovery.RecoveryHost` — so the policy, search
and recovery engines stay independently testable.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.core.handoff import plan_handoff
from repro.core.manager import TwoPhaseBufferPolicy
from repro.core.policies import BufferPolicy
from repro.core.search import SearchCoordinator
from repro.fec.decoder import FecBlockDecoder
from repro.net.topology import Hierarchy, NodeId
from repro.net.transport import Network, Packet
from repro.protocol.config import FEC_OFF, RrmpConfig
from repro.protocol.loss_detection import GapTracker
from repro.protocol.messages import (
    REPAIR_LOCAL,
    REPAIR_REGIONAL,
    REPAIR_RELAY,
    REPAIR_REMOTE,
    DataMessage,
    HandoffMessage,
    HaveReply,
    LocalRequest,
    ParityMessage,
    RemoteRequest,
    Repair,
    SearchRequest,
    Seq,
    SessionMessage,
)
from repro.protocol.recovery import RecoveryProcess
from repro.sim import Event, RandomStreams, Simulator, TraceLog

#: ``via`` values for message arrival paths (trace field and behaviour
#: switch: only remote arrivals trigger a regional re-multicast).
VIA_MULTICAST = "multicast"
VIA_LOCAL_REPAIR = "local-repair"
VIA_REMOTE_REPAIR = "remote-repair"
VIA_REGIONAL = "regional"
VIA_HANDOFF = "handoff"
VIA_INJECTED = "injected"
VIA_FEC = "fec-decode"


class RrmpMember:
    """One receiver (the sender is also a member, §2.1)."""

    def __init__(
        self,
        node_id: NodeId,
        sim: Simulator,
        network: Network,
        hierarchy: Hierarchy,
        config: RrmpConfig,
        streams: RandomStreams,
        trace: TraceLog,
        policy: Optional[BufferPolicy] = None,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.network = network
        self.hierarchy = hierarchy
        self.config = config
        self.streams = streams
        self.trace = trace
        self.alive = True

        self.policy: BufferPolicy = policy if policy is not None else TwoPhaseBufferPolicy(
            idle_threshold=config.idle_threshold,
            long_term_c=config.long_term_c,
            long_term_ttl=config.long_term_ttl,
        )
        self.policy.bind(self)
        self.search = SearchCoordinator(
            self, timer_factor=config.timer_factor, max_rounds=config.max_search_rounds
        )
        self.gap = GapTracker()
        self.recoveries: Dict[Seq, RecoveryProcess] = {}
        #: FEC block decoder (None when the subsystem is off): fills
        #: sequence gaps from parity before pull recovery has to run.
        self.fec: Optional[FecBlockDecoder] = (
            FecBlockDecoder() if config.fec_mode != FEC_OFF else None
        )
        #: Parity messages already processed (dedup, kept apart from
        #: the gap tracker whose seq space is data-only).
        self._parity_seen: Set[Seq] = set()
        #: Reactive-FEC hook: the sender installs this on its own
        #: member so observed retransmission requests can trigger
        #: on-demand parity for the affected block.
        self.repair_interest_hook: Optional[Callable[[Seq], None]] = None
        #: Downstream (child-region) members waiting for messages this
        #: member has not received yet (§2.2's relay rule).
        self.waiting_remote: Dict[Seq, Set[NodeId]] = {}
        #: Pending (backed-off) regional re-multicasts, for suppression.
        self._pending_regional: Dict[Seq, Event] = {}
        #: Extension point: payload type -> handler, used by companion
        #: agents (stability detection, failure detection) that share
        #: this member's network endpoint.
        self.extra_handlers: Dict[type, Callable[[object], None]] = {}
        #: §3.3 "this reply notifies other members that the search
        #: process is over": after a HaveReply we remember who owns the
        #: message, so search requests still in flight are redirected
        #: to the announced owner instead of re-seeding the search.
        self._search_owner_hint: Dict[Seq, NodeId] = {}
        #: Time of this member's last HaveReply per message.  One
        #: announcement stops the current search wave; straggler
        #: requests inside the suppression window are served without
        #: re-multicasting, while genuinely later searches (e.g. after
        #: a long-term TTL reshuffle) get a fresh announcement.
        self._announced_at: Dict[Seq, float] = {}
        #: Packets whose payload type has no handler here.
        self.unhandled_packets = 0

        network.register(node_id, self)

    # ==================================================================
    # Host-protocol surface (BufferHost / SearchHost / RecoveryHost)
    # ==================================================================
    def region_size(self) -> int:
        """Current size of this member's region."""
        return self.hierarchy.region_of(self.node_id).size

    def region_member_ids(self) -> Sequence[NodeId]:
        """Members of this member's region, including itself (the
        region's shared tuple, not a copy)."""
        return self.hierarchy.region_of(self.node_id).member_ids()

    def region_peers(self) -> Tuple[Sequence[NodeId], int]:
        """:meth:`region_member_ids` and this member's position in it."""
        return self.hierarchy.region_of(self.node_id).peers_of(self.node_id)

    def parent_member_ids(self) -> Sequence[NodeId]:
        """Members of the current parent region (empty for a root)."""
        return self.hierarchy.parent_members(self.node_id)

    def has_parent_region(self) -> bool:
        """Whether this member's region has a parent (possibly empty)."""
        return self.hierarchy.region_of(self.node_id).parent_id is not None

    def rtt_to(self, dst: NodeId) -> float:
        """Round-trip estimate used for retry timers."""
        return self.network.rtt(self.node_id, dst)

    def policy_rng(self, purpose: str) -> random.Random:
        """Deterministic RNG substream for the buffer policy (lazy:
        a member none of whose messages goes idle never draws)."""
        return self.streams.lazy("member", self.node_id, "policy", purpose)

    def search_rng(self) -> random.Random:
        """Deterministic RNG substream for bufferer search (lazy:
        most members never search)."""
        return self.streams.lazy("member", self.node_id, "search")

    def recovery_rng(self) -> random.Random:
        """Deterministic RNG substream for recovery target selection."""
        return self.streams.stream("member", self.node_id, "recovery")

    def send_search_request(self, dst: NodeId, request: SearchRequest) -> None:
        """Forward a search hop (SearchHost)."""
        self.network.unicast(self.node_id, dst, request)

    def send_local_request(self, dst: NodeId, request: LocalRequest) -> None:
        """Transmit a local retransmission request (RecoveryHost)."""
        self.network.unicast(self.node_id, dst, request)

    def send_remote_request(self, dst: NodeId, request: RemoteRequest) -> None:
        """Transmit a remote retransmission request (RecoveryHost)."""
        self.network.unicast(self.node_id, dst, request)

    # ==================================================================
    # Network entry point
    # ==================================================================
    #: Payload type → handler function.  Every payload is a final
    #: (frozen dataclass) type, so one exact-type dict lookup replaces
    #: an isinstance chain on the hottest protocol path.  Populated
    #: after the class body.
    _DISPATCH: Dict[type, Callable[..., None]] = {}

    def on_packet(self, packet: Packet) -> None:
        """Dispatch a delivered packet to the protocol handlers."""
        if not self.alive:
            return
        payload = packet.payload
        handler = self._DISPATCH.get(type(payload))
        if handler is not None:
            handler(self, payload)
            return
        extra = self.extra_handlers.get(type(payload))
        if extra is None:
            # A well-formed packet for a role this member does not play
            # (e.g. a FeedbackReport at a receiver): ignored and counted.
            self.unhandled_packets += 1
            return
        extra(payload)

    def _on_multicast_data(self, data: DataMessage) -> None:
        self._handle_data(data, VIA_MULTICAST)

    def _on_have_reply(self, reply: HaveReply) -> None:
        self._search_owner_hint[reply.seq] = reply.owner
        self.search.on_have_reply(reply.seq)

    # ==================================================================
    # Data-path handling
    # ==================================================================
    def _on_repair(self, repair: Repair) -> None:
        if isinstance(repair.data, ParityMessage):
            # A buffered parity shard served back to a requester: it
            # feeds the decoder, never the gap tracker.
            self._on_parity(repair.data)
            return
        if repair.scope == REPAIR_LOCAL:
            self._handle_data(repair.data, VIA_LOCAL_REPAIR)
        elif repair.scope in (REPAIR_REMOTE, REPAIR_RELAY):
            self._handle_data(repair.data, VIA_REMOTE_REPAIR)
        elif repair.scope == REPAIR_REGIONAL:
            self._handle_data(repair.data, VIA_REGIONAL)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown repair scope {repair.scope!r}")

    def _handle_data(self, data: DataMessage, via: str) -> None:
        seq = data.seq
        trace = self.trace
        # Duplicate-suppression for our own pending regional multicast:
        # if a neighbour already re-multicast this repair, drop ours.
        if via == VIA_REGIONAL:
            pending = self._pending_regional.pop(seq, None)
            if pending is not None:
                pending.cancel()
                if trace.enabled:
                    trace.emit(self.sim.now, "regional_multicast_suppressed",
                               node=self.node_id, seq=seq)
        if self.gap.is_received(seq):
            # §2.2: a duplicate remote repair is *not* re-multicast.
            if trace.enabled:
                trace.emit(self.sim.now, "duplicate_received",
                           node=self.node_id, seq=seq, via=via)
            return
        newly_missing = self.gap.on_receive(seq)
        if trace.enabled:
            trace.emit(self.sim.now, "member_received",
                       node=self.node_id, seq=seq, via=via)
        recovery = self.recoveries.pop(seq, None)
        if recovery is not None:
            recovery.complete(self.sim.now)
        self.policy.on_receive(data)
        self._serve_waiters(data)
        if self.fec is not None:
            # Eager decode: this arrival may give the block its k-th
            # shard, filling this member's other gaps in the block
            # before their recoveries spend another round.
            self._absorb_fec_recoveries(self.fec.on_data(data))
        for missing in newly_missing:
            self._start_recovery(missing)
        if via == VIA_REMOTE_REPAIR:
            # §2.2: a repair received from a remote member is multicast
            # in the local region so neighbours sharing the loss get it.
            self._schedule_regional_multicast(data)

    # ==================================================================
    # FEC repair path
    # ==================================================================
    def _on_parity(self, parity: ParityMessage) -> None:
        """Absorb one parity message (multicast, repair or handoff).

        Parity flows through the regular buffer policy — its reserved
        negative seq keys a normal entry, so the idle threshold,
        long-term promotion and handoff all apply and a long-term
        bufferer can serve parity exactly like data.
        """
        seq = parity.seq
        if seq in self._parity_seen:
            self.trace.emit(self.sim.now, "duplicate_received",
                            node=self.node_id, seq=seq, via="parity")
            return
        self._parity_seen.add(seq)
        self.trace.emit(self.sim.now, "fec_parity_received", node=self.node_id,
                        seq=seq, block=parity.block_id, index=parity.index)
        self.policy.on_receive(parity)
        if self.fec is not None:
            self._absorb_fec_recoveries(self.fec.on_parity(parity))

    def _absorb_fec_recoveries(self, recovered: Sequence[DataMessage]) -> None:
        """Treat decoder-reconstructed messages as regular arrivals.

        Going through :meth:`_handle_data` completes (and thereby
        cancels the timers of) any in-flight recovery for the decoded
        seq, buffers the reconstruction, and serves recorded waiters.
        """
        for data in recovered:
            self.trace.emit(self.sim.now, "fec_decode_recovered",
                            node=self.node_id, seq=data.seq)
            self._handle_data(data, VIA_FEC)

    def _serve_waiters(self, data: DataMessage) -> None:
        """Serve downstream waiters and resolve any active search."""
        seq = data.seq
        enabled = self.trace.enabled
        for waiter in sorted(self.waiting_remote.pop(seq, set())):
            self.network.unicast(
                self.node_id, waiter,
                Repair(data=data, responder=self.node_id, scope=REPAIR_RELAY),
            )
            self.policy.on_serve(seq)
            if enabled:
                self.trace.emit(self.sim.now, "remote_request_served",
                                node=self.node_id, seq=seq, requester=waiter, via="relay")
        for waiter in self.search.resolve(seq):
            self.network.unicast(
                self.node_id, waiter,
                Repair(data=data, responder=self.node_id, scope=REPAIR_REMOTE),
            )
            if enabled:
                self.trace.emit(self.sim.now, "remote_request_served",
                                node=self.node_id, seq=seq, requester=waiter, via="receipt")

    def _schedule_regional_multicast(self, data: DataMessage) -> None:
        backoff_max = self.config.regional_backoff_max
        if backoff_max:
            # Randomized back-off: wait, and suppress if a neighbour's
            # regional multicast of the same message arrives first.
            delay = self.policy_rng("regional-backoff").uniform(0.0, backoff_max)
            event = self.sim.after(delay, self._do_regional_multicast, data)
            self._pending_regional[data.seq] = event
        else:
            self._do_regional_multicast(data)

    def _do_regional_multicast(self, data: DataMessage) -> None:
        self._pending_regional.pop(data.seq, None)
        repair = Repair(data=data, responder=self.node_id, scope=REPAIR_REGIONAL)
        # The transport skips the sender itself.
        self.network.multicast(self.node_id, self.region_member_ids(), repair, group="region")
        self.trace.emit(self.sim.now, "regional_multicast", node=self.node_id, seq=data.seq)

    # ==================================================================
    # Request handling
    # ==================================================================
    def _on_local_request(self, request: LocalRequest) -> None:
        if self.repair_interest_hook is not None:
            self.repair_interest_hook(request.seq)
        # Feedback first (§3.1): every request, answerable or not,
        # refreshes the idle state of a buffered copy.
        self.policy.on_request(request.seq)
        data = self.policy.get(request.seq)
        if data is None:
            # §2.2: "Otherwise it ignores the request."
            return
        self.network.unicast(
            self.node_id, request.requester,
            Repair(data=data, responder=self.node_id, scope=REPAIR_LOCAL),
        )
        self.policy.on_serve(request.seq)
        if self.trace.enabled:
            self.trace.emit(self.sim.now, "repair_sent", node=self.node_id,
                            seq=request.seq, to=request.requester, scope=REPAIR_LOCAL)

    def _on_remote_request(self, request: RemoteRequest) -> None:
        seq, requester = request.seq, request.requester
        if self.repair_interest_hook is not None:
            self.repair_interest_hook(seq)
        self.trace.emit(self.sim.now, "remote_request_received",
                        node=self.node_id, seq=seq, requester=requester)
        # A remote request is feedback too: the message is still needed.
        self.policy.on_request(seq)
        data = self.policy.get(seq)
        if data is not None:
            # Case 1 (§3.3): still buffered — answer immediately.
            self.network.unicast(
                self.node_id, requester,
                Repair(data=data, responder=self.node_id, scope=REPAIR_REMOTE),
            )
            self.policy.on_serve(seq)
            self.trace.emit(self.sim.now, "remote_request_served",
                            node=self.node_id, seq=seq, requester=requester, via="buffer")
        elif not self.gap.is_received(seq):
            # Case 2: never received — record the waiter and relay on
            # receipt (§2.2); the request also reveals the message
            # exists, so it doubles as loss detection.
            self.waiting_remote.setdefault(seq, set()).add(requester)
            self.trace.emit(self.sim.now, "remote_request_recorded",
                            node=self.node_id, seq=seq, requester=requester)
            for missing in self.gap.on_advertise(seq):
                self._start_recovery(missing)
        else:
            # Case 3: received but discarded.  A deterministic policy
            # (hash-based, §3.4) can compute the bufferer set directly;
            # otherwise run the randomized search of §3.3.
            self._find_bufferer(seq, (requester,))

    #: Maximum consecutive owner-hint redirects before falling back to
    #: the randomized search (breaks cycles of stale hints).
    _MAX_REDIRECT_HOPS = 8

    def _find_bufferer(self, seq: Seq, waiters: Sequence[NodeId], hops: int = 0) -> None:
        """Route a request for a discarded message toward a bufferer."""
        hint = self._search_owner_hint.get(seq)
        if hint is not None and hint != self.node_id and hops < self._MAX_REDIRECT_HOPS:
            # A HaveReply already named the owner: one targeted hop
            # instead of (re)starting the search.
            self.trace.emit(self.sim.now, "search_redirected",
                            node=self.node_id, seq=seq, target=hint)
            self.send_search_request(
                hint, SearchRequest(seq=seq, waiters=tuple(sorted(waiters)),
                                    forwarder=self.node_id, hops=hops + 1)
            )
            return
        if hint is not None and hops >= self._MAX_REDIRECT_HOPS:
            # The hint chain went nowhere — the announced owner must
            # have discarded the message since.  Forget it and search.
            self._search_owner_hint.pop(seq, None)
        locate = getattr(self.policy, "locate_bufferers", None)
        if locate is not None:
            self._forward_via_lookup(seq, waiters, locate)
        else:
            self.search.begin(seq, waiters)

    def _forward_via_lookup(self, seq: Seq, waiters: Sequence[NodeId], locate) -> None:
        """§3.4 deterministic alternative to searching: hash every known
        address, forward the request straight to a computed bufferer."""
        candidates = [
            node for node in locate(seq, self.region_member_ids())
            if node != self.node_id
        ]
        if not candidates:
            # Hash selected nobody (probability ≈ e^{-C}) or only us —
            # fall back to the randomized search.
            self.search.begin(seq, waiters)
            return
        target = candidates[0]
        self.trace.emit(self.sim.now, "lookup_forwarded",
                        node=self.node_id, seq=seq, target=target)
        self.send_search_request(
            target, SearchRequest(seq=seq, waiters=tuple(sorted(waiters)),
                                  forwarder=self.node_id)
        )

    def _on_search_request(self, request: SearchRequest) -> None:
        seq, waiters = request.seq, request.waiters
        self.policy.on_request(seq)
        data = self.policy.get(seq)
        if data is not None:
            # Found: serve every waiter and announce, ending the search.
            for waiter in waiters:
                self.network.unicast(
                    self.node_id, waiter,
                    Repair(data=data, responder=self.node_id, scope=REPAIR_REMOTE),
                )
                self.policy.on_serve(seq)
                self.trace.emit(self.sim.now, "remote_request_served",
                                node=self.node_id, seq=seq, requester=waiter, via="search")
            self.search.on_have_reply(seq)  # stop our own search, if any
            last = self._announced_at.get(seq)
            if last is None or self.sim.now - last >= self.config.idle_threshold:
                self._announced_at[seq] = self.sim.now
                self.network.multicast(
                    self.node_id, self.region_member_ids(),
                    HaveReply(seq=seq, owner=self.node_id), group="region",
                )
            self.trace.emit(self.sim.now, "search_served",
                            node=self.node_id, seq=seq, waiters=tuple(waiters))
        elif not self.gap.is_received(seq):
            # Footnote 4: a searcher that never received the message
            # records the waiters and recovers the loss itself.
            for waiter in waiters:
                self.waiting_remote.setdefault(seq, set()).add(waiter)
            for missing in self.gap.on_advertise(seq):
                self._start_recovery(missing)
        else:
            # Received-but-discarded: join the search (or redirect if a
            # HaveReply already identified the owner).
            self._find_bufferer(seq, waiters, hops=request.hops)

    def _on_session(self, message: SessionMessage) -> None:
        for missing in self.gap.on_advertise(message.max_seq):
            self._start_recovery(missing)

    def _on_handoff(self, message: HandoffMessage) -> None:
        self.trace.emit(self.sim.now, "handoff_received", node=self.node_id,
                        seq=message.seq, from_member=message.from_member)
        if isinstance(message.data, ParityMessage):
            # Long-term parity transfers like data: absorb it (decoder
            # + short-term buffer), then promote to long-term since the
            # leaver's responsibility moves to us.
            self._on_parity(message.data)
            accept = getattr(self.policy, "accept_handoff", None)
            if accept is not None:
                accept(message.data)
            return
        if not self.gap.is_received(message.seq):
            # The handoff doubles as first receipt of the message.
            self._handle_data(message.data, VIA_HANDOFF)
        accept = getattr(self.policy, "accept_handoff", None)
        if accept is not None:
            accept(message.data)
        else:
            self.policy.on_receive(message.data)

    # ==================================================================
    # Recovery management
    # ==================================================================
    def _start_recovery(self, seq: Seq) -> None:
        if seq in self.recoveries or self.gap.is_received(seq):
            return
        if self.fec is not None:
            # Consult the decoder first: if enough of the block's
            # shards are already here, fill the gap locally and skip
            # the pull recovery entirely.
            self._absorb_fec_recoveries(self.fec.recover(seq))
            if self.gap.is_received(seq):
                return
        if self.trace.enabled:
            self.trace.emit(self.sim.now, "loss_detected", node=self.node_id, seq=seq)
        process = RecoveryProcess(self, seq, detected_at=self.sim.now)
        self.recoveries[seq] = process
        process.start()

    # ==================================================================
    # Experiment / scenario API
    # ==================================================================
    def inject_receive(self, data: DataMessage, via: str = VIA_INJECTED) -> None:
        """Deliver *data* to this member directly (no network hop).

        Used by workload generators to set an initial IP-multicast
        outcome, and by the sender for its own messages.
        """
        self._handle_data(data, via)

    def inject_parity(self, parity: ParityMessage) -> None:
        """Deliver *parity* to this member directly (no network hop).

        Used by the sender for its own parity messages, mirroring
        :meth:`inject_receive` for data.
        """
        self._on_parity(parity)

    def inject_loss_detection(self, seq: Seq) -> None:
        """Make the member detect that *seq* (and everything below) is missing.

        Figure 6/7 setup: "All other members simultaneously detect the
        loss and start sending local requests."
        """
        for missing in self.gap.on_advertise(seq):
            self._start_recovery(missing)

    def force_received(self, data: DataMessage) -> None:
        """Mark *data* as received in the past, without buffering it.

        Scenario helper for the "received but has discarded" state that
        Figures 8/9 start from.
        """
        self.gap.on_receive(data.seq)

    def install_long_term(self, data: DataMessage) -> None:
        """Make this member a long-term bufferer of *data* (Figure 8/9 setup)."""
        self.gap.on_receive(data.seq)
        accept = getattr(self.policy, "accept_handoff", None)
        if accept is not None:
            accept(data)
        else:
            self.policy.on_receive(data)

    # ==================================================================
    # Membership changes
    # ==================================================================
    def leave(self) -> None:
        """Graceful leave: hand long-term buffers to random peers (§3.2)."""
        if not self.alive:
            return
        messages = self.policy.drain_for_handoff()
        plan = plan_handoff(
            self.node_id, messages, self.region_member_ids(), self.policy_rng("handoff")
        )
        for target, handoff in plan:
            self.network.unicast(self.node_id, target, handoff)
            self.trace.emit(self.sim.now, "handoff_sent", node=self.node_id,
                            to=target, seq=handoff.seq)
        orphaned = len(messages) - len(plan)
        if orphaned > 0:
            # Last member of the region: its long-term entries die with it.
            self.trace.emit(self.sim.now, "handoff_orphaned",
                            node=self.node_id, count=orphaned)
        self._shutdown()
        self.trace.emit(self.sim.now, "member_left", node=self.node_id)

    def crash(self) -> None:
        """Fail-stop without handoff: long-term entries are simply lost."""
        if not self.alive:
            return
        self._shutdown()
        self.trace.emit(self.sim.now, "member_crashed", node=self.node_id)

    def _shutdown(self) -> None:
        self.alive = False
        for process in self.recoveries.values():
            process.cancel()
        self.recoveries.clear()
        self.search.close()
        for event in self._pending_regional.values():
            event.cancel()
        self._pending_regional.clear()
        self.policy.close()
        self.network.unregister(self.node_id)
        if self.hierarchy.contains(self.node_id):
            self.hierarchy.remove_member(self.node_id)

    # ==================================================================
    # Introspection
    # ==================================================================
    @property
    def buffered_count(self) -> int:
        """Messages currently buffered at this member."""
        return self.policy.occupancy

    def buffered_seqs(self) -> Sequence[Seq]:
        """Sequence numbers currently in this member's buffer.

        Oracle hook (:mod:`repro.validate`): lets the end-of-run sweep
        cross-check the trace's add/discard ledger against live state.
        """
        return tuple(self.policy.buffer.seqs())

    def active_recovery_seqs(self) -> Sequence[Seq]:
        """Seqs with a recovery still running (not completed/failed/cancelled).

        Oracle hook: at quiescence an active recovery with no pending
        timer event is a stalled recovery — the liveness bug class the
        invariant oracle exists to catch.
        """
        return tuple(
            seq for seq, process in self.recoveries.items() if process.active
        )

    def unresolved_gaps(self) -> Sequence[Seq]:
        """Detected-but-unreceived seqs at this member, in order.

        Oracle hook: at quiescence every entry must be covered by an
        explicit ``reliability_violation`` trace record.
        """
        return tuple(self.gap.missing())

    def has_received(self, seq: Seq) -> bool:
        """Whether *seq* has ever been received by this member."""
        return self.gap.is_received(seq)

    def is_buffering(self, seq: Seq) -> bool:
        """Whether *seq* is currently in this member's buffer."""
        return self.policy.has(seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RrmpMember(id={self.node_id}, region={self.hierarchy.region_id_of(self.node_id)}, "
            f"received={self.gap.received_count}, buffered={self.buffered_count})"
        )


RrmpMember._DISPATCH = {
    DataMessage: RrmpMember._on_multicast_data,
    ParityMessage: RrmpMember._on_parity,
    Repair: RrmpMember._on_repair,
    LocalRequest: RrmpMember._on_local_request,
    RemoteRequest: RrmpMember._on_remote_request,
    SearchRequest: RrmpMember._on_search_request,
    HaveReply: RrmpMember._on_have_reply,
    SessionMessage: RrmpMember._on_session,
    HandoffMessage: RrmpMember._on_handoff,
}
