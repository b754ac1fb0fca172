"""Gossip-based stability detection and its buffer policy (baseline [8]).

Each member periodically gossips its low watermark (plus its whole
known table) to a few random group members.  When the minimum watermark
across the *entire group* advances, messages below it are stable —
received everywhere — and can be discarded.

This is the baseline the paper positions itself against (§1, §3.1,
conclusion): it only ever discards genuinely-stable messages (no
reliability risk), but it

* requires complete group membership knowledge,
* costs continuous control traffic (counted by the harness), and
* holds *every* message at *every* member until global stability,
  which in a heterogeneous WAN is gated by the slowest region.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.core.buffer import DISCARD_STABLE
from repro.core.policies import BufferPolicy
from repro.net.topology import NodeId
from repro.protocol.member import RrmpMember
from repro.protocol.messages import DataMessage, Seq
from repro.sim import PeriodicTask
from repro.stability.digest import WatermarkDigest, WatermarkTable


class StabilityBufferPolicy(BufferPolicy):
    """Buffer everything until the stability detector clears it."""

    def on_receive(self, data: DataMessage) -> None:
        self.buffer.add(data, self.host.sim.now)
        self.host.trace.emit(self.host.sim.now, "buffer_add",
                             node=self.host.node_id, seq=data.seq)

    def notify_stable(self, frontier: Seq) -> int:
        """Discard every buffered message with seq ≤ *frontier*.

        Returns the number of messages discarded.
        """
        now = self.host.sim.now
        discarded = 0
        for seq in list(self.buffer.seqs()):
            if seq <= frontier:
                entry = self.buffer.discard(seq, now, DISCARD_STABLE)
                if entry is not None:
                    discarded += 1
                    self.host.trace.emit(
                        now, "buffer_discard", node=self.host.node_id, seq=seq,
                        reason=DISCARD_STABLE, was_long_term=False,
                        duration=now - entry.receive_time,
                    )
        return discarded


class StabilityAgent:
    """The gossip side of stability detection, attached to one member.

    The agent shares the member's network endpoint (via the member's
    ``extra_handlers`` hook), so digest traffic flows through the same
    simulated network and is counted in the same traffic statistics as
    protocol messages — that is what makes the overhead comparison
    against RRMP meaningful.
    """

    def __init__(
        self,
        member: RrmpMember,
        group_provider: Callable[[], Sequence[NodeId]],
        gossip_interval: float = 50.0,
        fanout: int = 2,
    ) -> None:
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        self.member = member
        self.group_provider = group_provider
        self.fanout = fanout
        self.table = WatermarkTable()
        self.stable_frontier: Seq = 0
        self._rng = member.streams.lazy("stability", member.node_id)
        member.extra_handlers[WatermarkDigest] = self._on_digest
        self._task = PeriodicTask(member.sim, gossip_interval, self._gossip)
        self._task.start(phase=gossip_interval * self._rng.random())

    def stop(self) -> None:
        """Stop gossiping (member left or simulation tear-down)."""
        self._task.stop()

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def _own_watermark(self) -> Seq:
        return self.member.gap.contiguous_prefix()

    def _gossip(self) -> None:
        if not self.member.alive:
            self._task.stop()
            return
        watermark = self._own_watermark()
        self.table.update(self.member.node_id, watermark)
        digest = WatermarkDigest(
            member=self.member.node_id,
            watermark=watermark,
            table=self.table.as_pairs(),
        )
        peers = [n for n in self.group_provider() if n != self.member.node_id]
        if not peers:
            return
        targets = self._rng.sample(peers, min(self.fanout, len(peers)))
        for target in targets:
            self.member.network.unicast(self.member.node_id, target, digest)
        self._check_stability()

    def _on_digest(self, digest: WatermarkDigest) -> None:
        advanced = self.table.update(digest.member, digest.watermark)
        advanced |= self.table.merge(digest.table)
        if advanced:
            self._check_stability()

    def _check_stability(self) -> None:
        frontier = self.table.stability_frontier(self.group_provider())
        if frontier <= self.stable_frontier:
            return
        self.stable_frontier = frontier
        self.member.trace.emit(
            self.member.sim.now, "stability_advanced",
            node=self.member.node_id, frontier=frontier,
        )
        notify = getattr(self.member.policy, "notify_stable", None)
        if notify is not None:
            notify(frontier)


def attach_stability(
    members: List[RrmpMember],
    gossip_interval: float = 50.0,
    fanout: int = 2,
) -> List[StabilityAgent]:
    """Attach a stability agent to every member of a simulation.

    The group-provider closes over the live hierarchy, so members that
    leave stop gating stability.  Members should have been built with
    :class:`StabilityBufferPolicy` for discards to actually happen.
    """
    if not members:
        return []
    hierarchy = members[0].hierarchy
    provider = lambda: hierarchy.nodes  # noqa: E731 - tiny closure
    return [
        StabilityAgent(member, provider, gossip_interval=gossip_interval, fanout=fanout)
        for member in members
    ]
