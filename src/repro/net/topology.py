"""Regions and the error-recovery hierarchy (paper §2.1).

The paper's system model groups receivers into *local regions* and
organizes regions into a hierarchy by distance from the sender.  Each
receiver knows the membership of its own region and of its *parent
region* (its least upstream region).  Receivers in the sender's region
have no parent region.

:class:`Region` is mutable (members join and leave); :class:`Hierarchy`
owns the regions and answers the membership queries the protocol needs:
"who are my neighbours?", "who is in my parent region?".

:class:`Hierarchy` is the only mutator (:meth:`~Hierarchy.add_member`,
:meth:`~Hierarchy.remove_member`, :meth:`~Hierarchy.set_parent`), which
is what lets a region hand every caller one shared member tuple and a
position map instead of a copy per query: only those drop the view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

NodeId = int
RegionId = int


class TopologyError(ValueError):
    """Raised on malformed hierarchy construction or unknown ids."""


@dataclass
class Region:
    """A local region: an id, an optional parent region, and its members.

    ``members`` preserves insertion order so random selection by index
    is deterministic given a seeded RNG.  Read it freely; change it and
    ``parent_id`` only through :class:`Hierarchy`.
    """

    region_id: RegionId
    parent_id: Optional[RegionId] = None
    members: List[NodeId] = field(default_factory=list)
    #: ``(member tuple, node → position in it)``, built on first query
    #: and dropped by :class:`Hierarchy` on every membership change.
    _view: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        """Current number of members in the region."""
        return len(self.members)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._current_view()[1]

    def member_ids(self) -> Tuple[NodeId, ...]:
        """The members as one tuple shared by every caller; a
        membership change builds a new one."""
        return self._current_view()[0]

    def peers_of(self, node_id: NodeId) -> Tuple[Tuple[NodeId, ...], int]:
        """``(member_ids(), position of node_id in it)``, the input of
        an O(1) neighbour pick (:func:`repro.sim.pick_other`)."""
        members, positions = self._current_view()
        return members, positions[node_id]

    def _current_view(self) -> Tuple[Tuple[NodeId, ...], Dict[NodeId, int]]:
        view = self._view
        if view is None:
            members = tuple(self.members)
            view = self._view = (members, {node: i for i, node in enumerate(members)})
        return view


class Hierarchy:
    """The error-recovery hierarchy: all regions plus node→region lookup.

    Build one with :func:`single_region`, :func:`chain`, :func:`star` or
    :func:`balanced_tree`, or assemble it manually via :meth:`add_region`
    and :meth:`add_member`.
    """

    def __init__(self) -> None:
        self.regions: Dict[RegionId, Region] = {}
        self._node_region: Dict[NodeId, RegionId] = {}
        self._next_node_id: NodeId = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_region(self, region_id: RegionId, parent_id: Optional[RegionId] = None) -> Region:
        """Create an empty region.  The parent region must already exist."""
        if region_id in self.regions:
            raise TopologyError(f"region {region_id} already exists")
        if parent_id is not None and parent_id not in self.regions:
            raise TopologyError(f"parent region {parent_id} does not exist")
        region = Region(region_id=region_id, parent_id=parent_id)
        self.regions[region_id] = region
        return region

    def add_member(self, region_id: RegionId, node_id: Optional[NodeId] = None) -> NodeId:
        """Add a node to *region_id*; auto-assigns an id when not given."""
        if region_id not in self.regions:
            raise TopologyError(f"region {region_id} does not exist")
        if node_id is None:
            node_id = self._next_node_id
        if node_id in self._node_region:
            raise TopologyError(f"node {node_id} already placed")
        self._next_node_id = max(self._next_node_id, node_id + 1)
        region = self.regions[region_id]
        region.members.append(node_id)
        region._view = None
        self._node_region[node_id] = region_id
        return node_id

    def add_members(self, region_id: RegionId, count: int) -> List[NodeId]:
        """Add *count* auto-numbered nodes to *region_id* in one step.

        Auto-assigned ids start at ``_next_node_id``, which exceeds every
        placed id, so there is no duplicate for a per-node check to find.
        """
        if region_id not in self.regions:
            raise TopologyError(f"region {region_id} does not exist")
        nodes = list(range(self._next_node_id, self._next_node_id + count))
        region = self.regions[region_id]
        region.members.extend(nodes)
        region._view = None
        self._node_region.update(dict.fromkeys(nodes, region_id))
        self._next_node_id += len(nodes)
        return nodes

    def remove_member(self, node_id: NodeId) -> None:
        """Remove a node (on leave or crash)."""
        region_id = self._node_region.pop(node_id, None)
        if region_id is None:
            raise TopologyError(f"node {node_id} not in topology")
        region = self.regions[region_id]
        region.members.remove(node_id)
        region._view = None

    def set_parent(self, region_id: RegionId, parent_id: Optional[RegionId]) -> None:
        """Re-point a parent link (adaptive re-parenting); the new
        parent must exist and not descend from *region_id*.  Parent
        lookups read ``parent_id`` at call time: no view to drop."""
        for endpoint in (region_id, parent_id):
            if endpoint is not None and endpoint not in self.regions:
                raise TopologyError(f"region {endpoint} does not exist")
        if parent_id is not None and region_id in self.ancestry(parent_id):
            raise TopologyError(f"cycle: region {parent_id} descends from {region_id}")
        self.regions[region_id].parent_id = parent_id

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        """All node ids across all regions (region order, then insertion)."""
        result: List[NodeId] = []
        for region_id in sorted(self.regions):
            result.extend(self.regions[region_id].members)
        return result

    @property
    def size(self) -> int:
        """Total number of nodes."""
        return len(self._node_region)

    def contains(self, node_id: NodeId) -> bool:
        """Whether *node_id* is currently placed in some region."""
        return node_id in self._node_region

    def region_of(self, node_id: NodeId) -> Region:
        """The region containing *node_id*."""
        try:
            return self.regions[self._node_region[node_id]]
        except KeyError:
            raise TopologyError(f"node {node_id} not in topology") from None

    def region_id_of(self, node_id: NodeId) -> RegionId:
        """The region id containing *node_id*."""
        try:
            return self._node_region[node_id]
        except KeyError:
            raise TopologyError(f"node {node_id} not in topology") from None

    def parent_region_of(self, node_id: NodeId) -> Optional[Region]:
        """The node's parent region (its least upstream region), if any."""
        region = self.region_of(node_id)
        if region.parent_id is None:
            return None
        return self.regions[region.parent_id]

    def neighbors(self, node_id: NodeId) -> List[NodeId]:
        """Other members of the node's own region."""
        region = self.region_of(node_id)
        return [member for member in region.members if member != node_id]

    def parent_members(self, node_id: NodeId) -> Tuple[NodeId, ...]:
        """The parent region's :meth:`Region.member_ids` (empty if no parent)."""
        parent = self.parent_region_of(node_id)
        return parent.member_ids() if parent is not None else ()

    def same_region(self, a: NodeId, b: NodeId) -> bool:
        """Whether two nodes share a region."""
        return self.region_id_of(a) == self.region_id_of(b)

    def region_distance(self, a: NodeId, b: NodeId) -> int:
        """Number of parent hops separating the regions of *a* and *b*.

        0 for same region; for nodes on different branches this is the
        hop distance through the closest common ancestor region.  Used
        by latency models that scale with hierarchy distance.
        """
        ra, rb = self.region_id_of(a), self.region_id_of(b)
        if ra == rb:
            return 0
        ancestry_a = self.ancestry(ra)
        ancestry_b = self.ancestry(rb)
        depth_a = {region: index for index, region in enumerate(ancestry_a)}
        for hops_b, region in enumerate(ancestry_b):
            if region in depth_a:
                return depth_a[region] + hops_b
        # Disjoint trees (no common ancestor): treat as the sum of both
        # depths plus one logical hop between the roots.
        return len(ancestry_a) + len(ancestry_b) - 1

    def region_hop_split(self, a: NodeId, b: NodeId) -> "Tuple[int, int]":
        """``(up, down)`` region hops for a packet from *a* to *b*.

        *up* counts hops from *a*'s region toward the closest common
        ancestor, *down* the hops from that ancestor to *b*'s region —
        so ``up + down == region_distance(a, b)``.  Latency models use
        the split to price asymmetric per-hop delays.
        """
        ra, rb = self.region_id_of(a), self.region_id_of(b)
        if ra == rb:
            return (0, 0)
        ancestry_a = self.ancestry(ra)
        ancestry_b = self.ancestry(rb)
        depth_a = {region: index for index, region in enumerate(ancestry_a)}
        for hops_b, region in enumerate(ancestry_b):
            if region in depth_a:
                return (depth_a[region], hops_b)
        # Disjoint trees: up to a's root plus the logical root-to-root
        # hop, then down b's whole ancestry (matches region_distance).
        return (len(ancestry_a), len(ancestry_b) - 1)

    def ancestry(self, region_id: RegionId) -> List[RegionId]:
        """*region_id*, its parent, and so on up to its root."""
        chain: List[RegionId] = []
        current: Optional[RegionId] = region_id
        while current is not None:
            chain.append(current)
            current = self.regions[current].parent_id
        return chain

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TopologyError`.

        Invariants: parent links acyclic, every node in exactly one
        region, membership maps consistent.
        """
        for region_id, region in self.regions.items():
            seen = set()
            current = region.parent_id
            while current is not None:
                if current == region_id or current in seen:
                    raise TopologyError(f"cycle in parent links at region {region_id}")
                seen.add(current)
                current = self.regions[current].parent_id
        placed: Dict[NodeId, RegionId] = {}
        for region_id, region in self.regions.items():
            for node in region.members:
                if node in placed:
                    raise TopologyError(f"node {node} in regions {placed[node]} and {region_id}")
                placed[node] = region_id
        if placed != self._node_region:
            raise TopologyError("node→region index out of sync with region member lists")


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def single_region(n: int) -> Hierarchy:
    """One region of *n* members — the paper's §4 local-region setting."""
    hierarchy = Hierarchy()
    hierarchy.add_region(0)
    hierarchy.add_members(0, n)
    return hierarchy


def chain(region_sizes: Sequence[int]) -> Hierarchy:
    """Regions in a line; region *i* is the parent of region *i+1*.

    ``chain([4, 5, 6])`` reproduces the three-region Figure 1 layout:
    region 0 holds the sender, region 1 is downstream of it, region 2
    downstream of region 1.
    """
    hierarchy = Hierarchy()
    for index, size in enumerate(region_sizes):
        parent = index - 1 if index > 0 else None
        hierarchy.add_region(index, parent_id=parent)
        hierarchy.add_members(index, size)
    return hierarchy


def star(root_size: int, leaf_sizes: Sequence[int]) -> Hierarchy:
    """A root region with several child regions hanging off it."""
    hierarchy = Hierarchy()
    hierarchy.add_region(0)
    hierarchy.add_members(0, root_size)
    for index, size in enumerate(leaf_sizes, start=1):
        hierarchy.add_region(index, parent_id=0)
        hierarchy.add_members(index, size)
    return hierarchy


def balanced_tree(depth: int, fanout: int, region_size: int) -> Hierarchy:
    """A balanced hierarchy: *fanout* children per region, *depth* levels.

    Level 0 is the sender's region.  Total regions =
    ``(fanout**(depth+1) - 1) / (fanout - 1)`` for fanout > 1.
    """
    if depth < 0:
        raise TopologyError(f"depth must be >= 0, got {depth}")
    if fanout < 1:
        raise TopologyError(f"fanout must be >= 1, got {fanout}")
    hierarchy = Hierarchy()
    hierarchy.add_region(0)
    hierarchy.add_members(0, region_size)
    frontier = [0]
    next_id = 1
    for _ in range(depth):
        new_frontier: List[RegionId] = []
        for parent in frontier:
            for _ in range(fanout):
                hierarchy.add_region(next_id, parent_id=parent)
                hierarchy.add_members(next_id, region_size)
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return hierarchy


def regions_of(hierarchy: Hierarchy, node_ids: Iterable[NodeId]) -> List[RegionId]:
    """Map each node id to its region id (convenience for tests/metrics)."""
    return [hierarchy.region_id_of(node) for node in node_ids]
