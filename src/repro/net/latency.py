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

from repro.net.topology import Hierarchy, NodeId


class LatencyModel(ABC):
    """One-way latency between a source and destination node, in ms."""

    @abstractmethod
    def one_way(self, src: NodeId, dst: NodeId) -> float:
        """One-way delay for a packet from *src* to *dst*."""

    def rtt(self, src: NodeId, dst: NodeId) -> float:
        """Round-trip estimate used for protocol timers."""
        return self.one_way(src, dst) + self.one_way(dst, src)


class ConstantLatency(LatencyModel):
    """The same one-way delay between every pair of nodes."""

    def __init__(self, one_way_ms: float = 5.0) -> None:
        if one_way_ms < 0:
            raise ValueError(f"latency must be >= 0, got {one_way_ms!r}")
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
        if intra_one_way < 0 or inter_one_way < 0:
            raise ValueError("latencies must be >= 0")
        for value in (inter_up_one_way, inter_down_one_way):
            if value is not None and value < 0:
                raise ValueError("latencies must be >= 0")
        self.hierarchy = hierarchy
        self.intra_one_way = intra_one_way
        self.inter_one_way = inter_one_way
        self.inter_up_one_way = inter_up_one_way
        self.inter_down_one_way = inter_down_one_way

    @property
    def asymmetric(self) -> bool:
        """Whether directional per-hop delays are configured."""
        return (
            self.inter_up_one_way is not None
            or self.inter_down_one_way is not None
        )

    def one_way(self, src: NodeId, dst: NodeId) -> float:
        hops = self.hierarchy.region_distance(src, dst)
        if hops == 0:
            return self.intra_one_way
        if not self.asymmetric:
            return self.inter_one_way * hops
        up_delay = (
            self.inter_up_one_way if self.inter_up_one_way is not None
            else self.inter_one_way
        )
        down_delay = (
            self.inter_down_one_way if self.inter_down_one_way is not None
            else self.inter_one_way
        )
        up, down = self.hierarchy.region_hop_split(src, dst)
        return up * up_delay + down * down_delay

