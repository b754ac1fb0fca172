"""Online repair-tree re-optimizer (makespan objective).

Every ``update_interval`` ms the optimizer re-evaluates the parent
assignment of each region against the link-state table.  The predicted
contribution of a region to the session makespan is the summed
``etx · rtt`` edge cost along its repair path to the root; the region
whose path is currently most expensive is considered first (the
makespan bottleneck).  A candidate parent is adopted only when it cuts
the region's predicted path cost by more than the ``hysteresis``
fraction — the ETX-thresholded update rule of the MTP design cited in
PAPERS.md — and at most one re-parent is applied per pass, with a hard
session budget (``max_reparents``), so tree-maintenance churn stays
bounded no matter how noisy the estimates get.

Re-parenting goes through :meth:`Hierarchy.set_parent`, which checks
the move (both regions exist, no cycle) and re-points the link in
place; the recovery protocol re-reads parent membership every remote
round, so in-flight recoveries redirect to the new parent on their next
round without any extra signalling.  Every applied change is emitted
as a ``tree_reparent`` trace record, which the ``adaptive-topology``
oracle invariant audits.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.adapt.linkstate import LinkStateEstimator
from repro.net.topology import Hierarchy, RegionId
from repro.sim import PeriodicTask, Simulator, TraceLog


class TreeOptimizer:
    """Periodically re-parent regions to shrink predicted makespan."""

    def __init__(
        self,
        sim: Simulator,
        hierarchy: Hierarchy,
        linkstate: LinkStateEstimator,
        trace: TraceLog,
        update_interval: float = 250.0,
        hysteresis: float = 0.1,
        max_reparents: int = 8,
        cooldown_passes: int = 3,
    ) -> None:
        if update_interval <= 0:
            raise ValueError(f"update_interval must be > 0, got {update_interval!r}")
        if hysteresis < 0:
            raise ValueError(f"hysteresis must be >= 0, got {hysteresis!r}")
        if max_reparents < 0:
            raise ValueError(f"max_reparents must be >= 0, got {max_reparents!r}")
        self.sim = sim
        self.hierarchy = hierarchy
        self.linkstate = linkstate
        self.trace = trace
        self.hysteresis = hysteresis
        self.max_reparents = max_reparents
        #: A freshly-moved region sits out this many passes before it
        #: may move again — link estimates for its new edge need time
        #: to accumulate, and without the cool-down a region can flap
        #: between two similarly-priced parents as samples trickle in.
        self.cooldown_passes = cooldown_passes
        #: Optimization passes run so far.
        self.update_count = 0
        #: Re-parent events applied so far (never exceeds the budget).
        self.reparent_count = 0
        self._last_moved: Dict[RegionId, int] = {}
        self._task = PeriodicTask(sim, update_interval, self._update)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic optimization passes."""
        self._task.start()

    def stop(self) -> None:
        """Stop ticking (idempotent)."""
        self._task.stop()

    @property
    def running(self) -> bool:
        """Whether optimization passes are scheduled."""
        return self._task.running

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def path_costs(self) -> Dict[RegionId, float]:
        """Predicted repair-path cost to the root for every region.

        The cost of a region is the sum of ``edge_cost`` over each
        parent hop on its way to a root region.  Roots cost 0.
        """
        costs: Dict[RegionId, float] = {}

        def cost_of(region_id: RegionId) -> float:
            if region_id in costs:
                return costs[region_id]
            parent = self.hierarchy.regions[region_id].parent_id
            if parent is None:
                value = 0.0
            else:
                value = self.linkstate.edge_cost(region_id, parent) + cost_of(parent)
            costs[region_id] = value
            return value

        for region_id in sorted(self.hierarchy.regions):
            cost_of(region_id)
        return costs

    # ------------------------------------------------------------------
    # Optimization pass
    # ------------------------------------------------------------------
    def _update(self) -> None:
        self.update_count += 1
        if self.reparent_count >= self.max_reparents:
            return
        costs = self.path_costs()
        # Bottleneck first: the most expensive repair path bounds the
        # predicted makespan, so improving it pays the most.
        candidates_order = sorted(
            (rid for rid, region in self.hierarchy.regions.items()
             if region.parent_id is not None),
            key=lambda rid: (-costs[rid], rid),
        )
        for region_id in candidates_order:
            last = self._last_moved.get(region_id)
            if last is not None and self.update_count - last < self.cooldown_passes:
                continue
            move = self._best_move(region_id, costs)
            if move is None:
                continue
            new_parent, predicted = move
            self._apply(region_id, new_parent, costs[region_id], predicted)
            return  # at most one re-parent per pass

    def _best_move(
        self, region_id: RegionId, costs: Dict[RegionId, float]
    ) -> Optional[tuple]:
        region = self.hierarchy.regions[region_id]
        current_cost = costs[region_id]
        threshold = current_cost * (1.0 - self.hysteresis)
        best: Optional[tuple] = None
        for candidate_id in sorted(self.hierarchy.regions):
            if candidate_id == region_id or candidate_id == region.parent_id:
                continue
            candidate = self.hierarchy.regions[candidate_id]
            if not candidate.members:
                continue  # an empty region cannot serve repairs
            # Acyclicity: the new parent must not descend from us.
            if region_id in self.hierarchy.ancestry(candidate_id):
                continue
            predicted = self.linkstate.edge_cost(region_id, candidate_id) + costs[candidate_id]
            if predicted >= threshold:
                continue
            if best is None or predicted < best[1]:
                best = (candidate_id, predicted)
        return best

    def _apply(
        self,
        region_id: RegionId,
        new_parent: RegionId,
        previous_cost: float,
        predicted_cost: float,
    ) -> None:
        old_parent = self.hierarchy.regions[region_id].parent_id
        self.hierarchy.set_parent(region_id, new_parent)
        self.reparent_count += 1
        self._last_moved[region_id] = self.update_count
        self.trace.emit(
            self.sim.now,
            "tree_reparent",
            region=region_id,
            old_parent=old_parent,
            new_parent=new_parent,
            previous_cost=previous_cost,
            predicted_cost=predicted_cost,
        )
