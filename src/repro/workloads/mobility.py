"""Waypoint mobility: roaming receivers that hand off between regions.

The paper's §3.2 handoff rule exists because "receivers may join or
leave a multicast session dynamically" — but random join/leave is the
gentlest possible version of that stress.  Mobile receivers are the
hard version: a walking node *repeatedly* leaves one region and joins
another, each time draining its long-term buffer through the graceful
handoff path, and the IEEE 802.11 multicast literature (PAPERS.md)
adds distance-driven loss on top.

:class:`MobilityManager` implements a deterministic random-waypoint
model over a square field:

* every region owns a fixed **anchor** point (regions arranged on a
  circle, deterministically from the sorted region ids);
* every node starts near its home region's anchor and walks toward a
  waypoint at ``speed`` field-units per ms, re-drawn **from a
  deterministic per-(node, epoch) seed** when reached — so a node's
  whole trajectory is a pure function of ``(master_seed, node)`` and
  never perturbs any other consumer of randomness;
* every ``epoch`` ms each node re-evaluates its nearest anchor; when
  that differs from its current region the node gracefully leaves
  (§3.2: long-term buffer drains through :func:`plan_handoff`) and
  re-joins the new region as a fresh member, carrying its position.

Handoffs are emitted as ``mobility_handoff`` trace records, and the
handoff-conservation invariant (:mod:`repro.validate.invariants`)
checks the §3.2 ledger across every one of them.

:class:`DistanceLoss` optionally makes per-link data loss follow
sender/receiver distance (0 at co-location, ``max_loss`` at full-field
separation) — the SNR-style loss model that motivates rate-adaptive
multicast work.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Set, Tuple

from repro.net.loss import LossModel
from repro.net.topology import Hierarchy, NodeId, RegionId
from repro.sim.randomness import derive_seed

Point = Tuple[float, float]


def _distance(a: Point, b: Point) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _step_toward(pos: Point, target: Point, step: float) -> Point:
    gap = _distance(pos, target)
    if gap <= step or gap == 0.0:
        return target
    scale = step / gap
    return (pos[0] + (target[0] - pos[0]) * scale,
            pos[1] + (target[1] - pos[1]) * scale)


def region_anchors(hierarchy: Hierarchy, area: float) -> Dict[RegionId, Point]:
    """Fixed anchor point per region: sorted region ids on a circle.

    Deterministic in the hierarchy alone (no randomness), so anchors
    never move even as members come and go.
    """
    region_ids = sorted(hierarchy.regions)
    center = (area / 2.0, area / 2.0)
    if len(region_ids) == 1:
        return {region_ids[0]: center}
    radius = area * 0.35
    anchors: Dict[RegionId, Point] = {}
    for index, region_id in enumerate(region_ids):
        angle = 2.0 * math.pi * index / len(region_ids)
        anchors[region_id] = (
            center[0] + radius * math.cos(angle),
            center[1] + radius * math.sin(angle),
        )
    return anchors


class MobilityManager:
    """Moves members across a square field and hands them off.

    Construct against the *hierarchy* (before the simulation exists, so
    :class:`DistanceLoss` can wrap it into the transport), then
    :meth:`attach` to the built simulation to schedule movement epochs.
    All movement randomness derives from ``(master_seed, "mobility",
    ...)`` named seeds — per-(node, epoch) for waypoints — so adding
    mobility never perturbs protocol or churn draws.
    """

    def __init__(self, hierarchy: Hierarchy, spec, master_seed: int) -> None:
        self.hierarchy = hierarchy
        self.spec = spec
        self.master_seed = int(master_seed)
        self.anchors = region_anchors(hierarchy, spec.area)
        self._center: Point = (spec.area / 2.0, spec.area / 2.0)
        self.positions: Dict[NodeId, Point] = {}
        self.waypoints: Dict[NodeId, Point] = {}
        self.handoff_count = 0
        self.epoch_count = 0
        self.simulation = None
        self._protected: Set[NodeId] = set()
        spread = spec.area * 0.08
        for node in hierarchy.nodes:
            anchor = self.anchors[hierarchy.region_id_of(node)]
            rng = random.Random(derive_seed(self.master_seed, ("mobility", "init", node)))
            self.positions[node] = self._clamp((
                anchor[0] + rng.uniform(-spread, spread),
                anchor[1] + rng.uniform(-spread, spread),
            ))

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, simulation, duration: float) -> "MobilityManager":
        """Schedule movement epochs over ``[0, duration]``; returns self.

        Epochs are pre-scheduled as a finite set of engine events, so a
        draining run terminates without anyone stopping the manager.
        """
        if duration <= 0:
            raise ValueError(f"mobility duration must be > 0, got {duration!r}")
        self.simulation = simulation
        if self.spec.protect_sender:
            self._protected = {simulation.sender.member.node_id}
        ticks = int(duration // self.spec.epoch)
        for index in range(1, ticks + 1):
            simulation.sim.at(index * self.spec.epoch, self._tick, index)
        return self

    # ------------------------------------------------------------------
    # Movement
    # ------------------------------------------------------------------
    def waypoint_for(self, node: NodeId, epoch: int) -> Point:
        """The waypoint drawn for *(node, epoch)* — a pure function of
        the master seed, so trajectories are replayable in isolation."""
        rng = random.Random(derive_seed(self.master_seed, ("mobility", node, epoch)))
        return (rng.uniform(0.0, self.spec.area), rng.uniform(0.0, self.spec.area))

    def position_of(self, node: NodeId) -> Point:
        """Current position; unknown nodes sit at their region anchor."""
        pos = self.positions.get(node)
        if pos is not None:
            return pos
        if self.hierarchy.contains(node):
            return self.anchors.get(self.hierarchy.region_id_of(node), self._center)
        return self._center

    def nearest_region(self, pos: Point) -> RegionId:
        """The region whose anchor is closest to *pos* (ties: lowest id)."""
        return min(sorted(self.anchors),
                   key=lambda region_id: _distance(pos, self.anchors[region_id]))

    def _clamp(self, pos: Point) -> Point:
        area = self.spec.area
        return (min(max(pos[0], 0.0), area), min(max(pos[1], 0.0), area))

    def _tick(self, epoch: int) -> None:
        simulation = self.simulation
        assert simulation is not None
        self.epoch_count = epoch
        step = self.spec.speed * self.spec.epoch
        # Adopt nodes that joined after construction (e.g. via churn):
        # they appear at their region anchor and roam from there.
        for node in sorted(simulation.members):
            member = simulation.members[node]
            if member.alive and node not in self.positions:
                self.positions[node] = self.position_of(node)
        for node in sorted(self.positions):
            member = simulation.members.get(node)
            if member is None or not member.alive:
                self.positions.pop(node, None)
                self.waypoints.pop(node, None)
                continue
            pos = self.positions[node]
            waypoint = self.waypoints.get(node)
            if waypoint is None or _distance(pos, waypoint) <= step:
                waypoint = self.waypoint_for(node, epoch)
                self.waypoints[node] = waypoint
            pos = self._clamp(_step_toward(pos, waypoint, step))
            self.positions[node] = pos
            if node in self._protected:
                continue
            new_region = self.nearest_region(pos)
            if new_region != self.hierarchy.region_id_of(node):
                self._handoff(member, node, new_region, pos)

    def _handoff(self, member, node: NodeId, new_region: RegionId, pos: Point) -> None:
        simulation = self.simulation
        old_region = self.hierarchy.region_id_of(node)
        member.leave()  # graceful: §3.2 long-term handoff to peers
        new_member = simulation.add_member(new_region)
        new_node = new_member.node_id
        self.positions.pop(node, None)
        self.positions[new_node] = pos
        waypoint = self.waypoints.pop(node, None)
        if waypoint is not None:
            self.waypoints[new_node] = waypoint
        self.handoff_count += 1
        simulation.trace.emit(
            simulation.sim.now, "mobility_handoff",
            node=node, new_node=new_node,
            from_region=old_region, to_region=new_region,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Flat metrics for :meth:`BuiltScenario.summary`."""
        return {
            "mobility_handoffs": self.handoff_count,
            "mobility_epochs": self.epoch_count,
        }


class DistanceLoss(LossModel):
    """Per-link data loss growing with the endpoints' field distance.

    Loss probability is ``max_loss * min(1, distance / area)`` — zero
    at co-location, ``max_loss`` at full-field separation — the
    SNR-vs-distance shape from the rate-adaptive multicast literature.
    Composes with an optional *base* model (evaluated first, its
    ``bind_clock`` forwarded).
    """

    def __init__(self, manager: MobilityManager, max_loss: float,
                 base: Optional[LossModel] = None) -> None:
        if not 0 <= max_loss <= 1:
            raise ValueError(f"max_loss must be in [0, 1], got {max_loss!r}")
        self.manager = manager
        self.max_loss = max_loss
        self.base = base

    def bind_clock(self, clock) -> None:
        if self.base is not None:
            self.base.bind_clock(clock)

    def probability(self, src: NodeId, dst: NodeId) -> float:
        """The current distance-driven drop probability for the link."""
        gap = _distance(self.manager.position_of(src), self.manager.position_of(dst))
        return self.max_loss * min(1.0, gap / self.manager.spec.area)

    def is_lost(self, src: NodeId, dst: NodeId, kind: str, rng: random.Random) -> bool:
        if self.base is not None and self.base.is_lost(src, dst, kind, rng):
            return True
        if kind != "data" or self.max_loss <= 0:
            return False
        return rng.random() < self.probability(src, dst)
