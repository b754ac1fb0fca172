"""Packet-loss models.

The paper's §4 simulations assume "retransmission requests and repairs
are not lost" and model loss only at initial IP-multicast time, but the
protocol itself must tolerate arbitrary loss, so the transport accepts a
pluggable :class:`LossModel` consulted per (src, dst, kind) delivery.

``kind`` is the packet classification from :mod:`repro.net.packet`
(``"data"`` or ``"control"``).  Every model here drops data only and
keeps control traffic reliable — exactly the paper's evaluation
assumption — except :class:`RegionalOutageLoss`, whose partition severs
both.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import deque
from typing import Dict, Set, Tuple

from repro.net.topology import Hierarchy, NodeId


class LossModel(ABC):
    """Decides, per delivery attempt, whether a packet is dropped."""

    @abstractmethod
    def is_lost(self, src: NodeId, dst: NodeId, kind: str, rng: random.Random) -> bool:
        """Return ``True`` to drop the packet from *src* to *dst*."""


class NoLoss(LossModel):
    """A perfectly reliable network (the §4 control-plane assumption)."""

    def is_lost(self, src: NodeId, dst: NodeId, kind: str, rng: random.Random) -> bool:
        return False


class BernoulliLoss(LossModel):
    """Independent data loss with a fixed probability per delivery.

    A test double: no ``LossSpec`` kind builds it.
    """

    def __init__(self, probability: float) -> None:
        if not 0 <= probability <= 1:
            raise ValueError(f"probability must be in [0, 1], got {probability!r}")
        self.probability = probability

    def is_lost(self, src: NodeId, dst: NodeId, kind: str, rng: random.Random) -> bool:
        if kind != "data":
            return False
        return rng.random() < self.probability


class ReceiverSetLoss(LossModel):
    """Drop data packets destined to an explicit set of receivers.

    Deterministic; used by tests to script exact loss patterns.
    """

    def __init__(self, lost_receivers: Set[NodeId]) -> None:
        self.lost_receivers = set(lost_receivers)

    def is_lost(self, src: NodeId, dst: NodeId, kind: str, rng: random.Random) -> bool:
        return kind == "data" and dst in self.lost_receivers


class BottleneckLoss(LossModel):
    """Congestion loss at a capacity-constrained shared link.

    Models the regime adaptive senders exist for: the data plane shares
    a bottleneck of ``capacity`` packet deliveries per second — counted
    per (src, dst) attempt, so a multicast to *n* receivers spends *n*
    units, and repairs spend from the same budget (overload degrades
    recovery too).  Every data delivery attempt is timestamped;
    when the attempt rate over the trailing ``window_ms`` exceeds
    capacity, each data packet drops with the excess ratio
    ``1 - capacity/rate`` (random early drop at the queue) on top of
    the independent ``base_loss``.  Below capacity only ``base_loss``
    applies.

    Needs a clock: the owning transport calls :meth:`bind_clock` with
    its time source (the simulator or a live clock — anything with a
    ``now`` property).
    """

    def __init__(
        self,
        capacity: float,
        window_ms: float = 250.0,
        base_loss: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0 msgs/s, got {capacity!r}")
        if window_ms <= 0:
            raise ValueError(f"window_ms must be > 0, got {window_ms!r}")
        if not 0 <= base_loss <= 1:
            raise ValueError(f"base_loss must be in [0, 1], got {base_loss!r}")
        self.capacity = capacity
        self.window_ms = window_ms
        self.base_loss = base_loss
        self.clock = None
        self._attempts: deque = deque()

    def bind_clock(self, clock) -> None:
        """Attach the time source (called by the transport)."""
        self.clock = clock

    def current_rate(self) -> float:
        """Offered data-plane rate over the trailing window, msgs/s."""
        return len(self._attempts) * 1000.0 / self.window_ms

    def excess_ratio(self) -> float:
        """The fraction of offered load beyond capacity (0 when under)."""
        rate = self.current_rate()
        if rate <= self.capacity:
            return 0.0
        return 1.0 - self.capacity / rate

    def is_lost(self, src: NodeId, dst: NodeId, kind: str, rng: random.Random) -> bool:
        if kind != "data":
            return False
        if self.clock is None:
            raise RuntimeError(
                "BottleneckLoss has no clock; the transport must call "
                "bind_clock() before traffic flows"
            )
        now = self.clock.now
        cutoff = now - self.window_ms
        attempts = self._attempts
        while attempts and attempts[0] <= cutoff:
            attempts.popleft()
        attempts.append(now)
        p = self.base_loss + (1.0 - self.base_loss) * self.excess_ratio()
        return rng.random() < p


class GilbertElliottLoss(LossModel):
    """Two-state (good/bad) bursty loss per directed link.

    Classic Gilbert–Elliott channel: in the *good* state packets drop
    with ``p_good`` (usually ~0), in the *bad* state with ``p_bad``;
    the state flips per packet with transition probabilities
    ``p_good_to_bad`` and ``p_bad_to_good``.  Models the bursty loss that
    motivates buffering a message until the *burst* has been repaired,
    not just the first request.
    """

    def __init__(
        self,
        p_good_to_bad: float = 0.01,
        p_bad_to_good: float = 0.3,
        p_good: float = 0.0,
        p_bad: float = 0.5,
    ) -> None:
        for name, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("p_good", p_good),
            ("p_bad", p_bad),
        ):
            if not 0 <= p <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.p_good = p_good
        self.p_bad = p_bad
        self._bad_state: Dict[Tuple[NodeId, NodeId], bool] = {}

    def is_lost(self, src: NodeId, dst: NodeId, kind: str, rng: random.Random) -> bool:
        if kind != "data":
            return False
        link = (src, dst)
        bad = self._bad_state.get(link, False)
        flip = self.p_bad_to_good if bad else self.p_good_to_bad
        if rng.random() < flip:
            bad = not bad
        self._bad_state[link] = bad
        return rng.random() < (self.p_bad if bad else self.p_good)


class RegionalOutageLoss(LossModel):
    """A correlated whole-region partition that later heals.

    During ``[start, start + duration)`` every packet crossing the
    boundary of an outaged region drops — data *and* control,
    because a partition severs the link itself, not one
    traffic class.  Members inside an outaged region keep talking to
    each other; everyone else keeps talking around them.  After the
    heal, the stranded members discover their accumulated gaps through
    normal session messages and recover en masse — the mass-gap
    recovery regime the two-phase buffer rule must survive.

    An independent ``receiver_loss`` floor applies to data packets for
    the whole run (outside and during the outage).

    Needs a clock: the owning transport calls :meth:`bind_clock` with
    its time source.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        regions: Set[int],
        start: float,
        duration: float,
        receiver_loss: float = 0.0,
    ) -> None:
        if start < 0 or duration <= 0:
            raise ValueError(
                f"outage needs start >= 0 and duration > 0, got {start!r}/{duration!r}"
            )
        if not 0 <= receiver_loss <= 1:
            raise ValueError(f"receiver_loss must be in [0, 1], got {receiver_loss!r}")
        self.hierarchy = hierarchy
        self.regions = set(regions)
        self.start = start
        self.end = start + duration
        self.receiver_loss = receiver_loss
        self.clock = None
        self.partition_drops = 0

    def bind_clock(self, clock) -> None:
        """Attach the time source (called by the transport)."""
        self.clock = clock

    def active(self, now: float) -> bool:
        """Whether the partition is in force at *now*."""
        return self.start <= now < self.end

    def is_lost(self, src: NodeId, dst: NodeId, kind: str, rng: random.Random) -> bool:
        if self.clock is None:
            raise RuntimeError(
                "RegionalOutageLoss has no clock; the transport must call "
                "bind_clock() before traffic flows"
            )
        if (self.regions and self.active(self.clock.now)
                and self.hierarchy.contains(src) and self.hierarchy.contains(dst)):
            src_region = self.hierarchy.region_id_of(src)
            dst_region = self.hierarchy.region_id_of(dst)
            if src_region != dst_region and (
                src_region in self.regions or dst_region in self.regions
            ):
                self.partition_drops += 1
                return True
        if kind == "data" and self.receiver_loss > 0:
            return rng.random() < self.receiver_loss
        return False
