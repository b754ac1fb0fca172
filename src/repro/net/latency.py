"""Latency models: one-way delays between nodes.

The paper's §4 evaluation fixes the round-trip time between any two
members of a region at 10 ms, i.e. 5 ms one-way
(:class:`HierarchicalLatency` with the default ``intra_one_way=5.0``).
Inter-region latency "can be much larger than the latency within a
region" (§3.2); the hierarchical model scales one-way delay with the
region-hop distance so WAN experiments exhibit exactly that gap.

Protocol timers use :meth:`LatencyModel.rtt`, mirroring the paper's
"sets a timer according to its estimated round trip time".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

from repro.net.topology import Hierarchy, NodeId, TopologyError

_INF = float("inf")


def _check_delay(name: str, value: float) -> None:
    if not 0 <= value < _INF:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


class LatencyModel(ABC):
    """One-way latency between a source and destination node, in ms."""

    @abstractmethod
    def one_way(self, src: NodeId, dst: NodeId) -> float:
        """One-way delay for a packet from *src* to *dst*."""

    def rtt(self, src: NodeId, dst: NodeId) -> float:
        """Round-trip estimate used for protocol timers."""
        return self.one_way(src, dst) + self.one_way(dst, src)

    def delays(self, src: NodeId, dsts: Sequence[NodeId]) -> List[float]:
        """``[one_way(src, dst) for dst in dsts]``: a fan-out's delays."""
        one_way = self.one_way
        return [one_way(src, dst) for dst in dsts]


class ConstantLatency(LatencyModel):
    """The same one-way delay between every pair of nodes."""

    def __init__(self, one_way_ms: float = 5.0) -> None:
        _check_delay("one_way_ms", one_way_ms)
        self.one_way_ms = one_way_ms

    def one_way(self, src: NodeId, dst: NodeId) -> float:
        return self.one_way_ms


class HierarchicalLatency(LatencyModel):
    """Latency scaling with the hierarchy distance between regions.

    * same region: ``intra_one_way`` (default 5 ms → 10 ms RTT, §4);
    * different regions: ``inter_one_way`` per region hop, so a request
      to the parent region costs one hop and recovery across the tree
      costs proportionally more.

    ``inter_up_one_way`` / ``inter_down_one_way`` optionally price the
    two directions of an inter-region hop separately (netem-style
    asymmetry): hops from the source's region toward the closest common
    ancestor use the *up* delay, hops from the ancestor down to the
    destination's region the *down* delay.  Left ``None``, both fall
    back to the symmetric ``inter_one_way`` and the historical
    ``inter_one_way * hops`` formula is used verbatim.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        intra_one_way: float = 5.0,
        inter_one_way: float = 40.0,
        inter_up_one_way: float | None = None,
        inter_down_one_way: float | None = None,
    ) -> None:
        _check_delay("intra_one_way", intra_one_way)
        _check_delay("inter_one_way", inter_one_way)
        for name, value in (("inter_up_one_way", inter_up_one_way),
                            ("inter_down_one_way", inter_down_one_way)):
            if value is not None:
                _check_delay(name, value)
        self.hierarchy = hierarchy
        self.intra_one_way = intra_one_way
        self.inter_one_way = inter_one_way
        self.inter_up_one_way = inter_up_one_way
        self.inter_down_one_way = inter_down_one_way
        self._asymmetric = inter_up_one_way is not None or inter_down_one_way is not None

    @property
    def asymmetric(self) -> bool:
        """Whether directional per-hop delays are configured."""
        return self._asymmetric

    def rtt(self, src: NodeId, dst: NodeId) -> float:
        if self._asymmetric:
            # The reverse split is not always the forward one swapped
            # (disjoint trees), so price each direction on its own.
            return self.one_way(src, dst) + self.one_way(dst, src)
        delay = self.one_way(src, dst)
        return delay + delay

    def delays(self, src: NodeId, dsts: Sequence[NodeId]) -> List[float]:
        """A fan-out's delays, priced once per destination region.

        The delay depends on the destination only through its region,
        so a multicast to a region's *n* members walks the hop table
        once, not *n* times, and reads each destination's region off the
        node → region map with no call.  The memo lives for this call
        only, so a re-parent or a member move between calls needs no
        invalidation.
        """
        node_region = self.hierarchy.node_region
        try:
            regions = [node_region[dst] for dst in dsts]
        except KeyError as unplaced:
            raise TopologyError(f"node {unplaced.args[0]} not in topology") from None
        one_way = self.one_way
        price = {region: one_way(src, dst) for region, dst in dict(zip(regions, dsts)).items()}
        return [price[region] for region in regions]

    def one_way(self, src: NodeId, dst: NodeId) -> float:
        # A same-region pair is read off the node → region map; the hop
        # table prices every other pair (and names an unknown node).
        region_of = self.hierarchy.node_region
        if src in region_of and dst in region_of and region_of[src] == region_of[dst]:
            return self.intra_one_way
        up, down = self.hierarchy.region_hop_split(src, dst)
        hops = up + down
        if not self._asymmetric:
            return self.inter_one_way * hops
        up_delay = (
            self.inter_up_one_way if self.inter_up_one_way is not None
            else self.inter_one_way
        )
        down_delay = (
            self.inter_down_one_way if self.inter_down_one_way is not None
            else self.inter_one_way
        )
        return up * up_delay + down * down_delay

