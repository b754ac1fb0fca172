"""Graceful-leave buffer handoff (paper §3.2).

"When a receiver voluntarily leaves the group, it transfers each
message in its long-term buffer to a randomly selected receiver in the
region.  This avoids the situation where all long-term bufferers decide
to leave the group, making a message loss unrecoverable."

The policy decides *what* to transfer (:meth:`BufferPolicy.drain_for_handoff`);
this module decides *where*: an independent uniformly-random region
peer per message, so a leaver holding many messages spreads them
rather than dumping its whole buffer on one member.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.protocol.messages import DataMessage, HandoffMessage
from repro.net.topology import NodeId


def plan_handoff(
    leaver: NodeId,
    messages: Sequence[DataMessage],
    region_members: Sequence[NodeId],
    rng: random.Random,
) -> List[Tuple[NodeId, HandoffMessage]]:
    """Assign each drained message to a random surviving region peer.

    Returns ``(target, HandoffMessage)`` pairs; empty when the leaver is
    the last member of its region (nothing can be preserved — callers
    may record a reliability risk in that case).
    """
    peers = [member for member in region_members if member != leaver]
    if not peers:
        return []
    plan: List[Tuple[NodeId, HandoffMessage]] = []
    for data in messages:
        target = rng.choice(peers)
        plan.append((target, HandoffMessage(data=data, from_member=leaver)))
    return plan
