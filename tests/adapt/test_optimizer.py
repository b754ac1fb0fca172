"""Unit tests for the makespan-aware tree re-optimizer."""

import pytest

from repro.adapt.linkstate import LinkStateEstimator
from repro.adapt.optimizer import TreeOptimizer
from repro.net.topology import chain, star
from tests.conftest import cycles_left_by


def make_optimizer(sim, trace, hierarchy, **kwargs):
    estimator = LinkStateEstimator(hierarchy, default_rtt_ms=80.0).attach(trace)
    return TreeOptimizer(sim, hierarchy, estimator, trace, **kwargs)


def poison_edge(estimator, trace, node, rounds=5):
    """Mark *node*'s parent edge as effectively dead via violations."""
    for _ in range(rounds):
        trace.emit(0.0, "reliability_violation", node=node, seq=1, waited=100.0)


class TestValidation:
    def test_bad_update_interval_rejected(self, sim, trace):
        with pytest.raises(ValueError, match="update_interval"):
            make_optimizer(sim, trace, chain([2, 2]), update_interval=0.0)

    def test_negative_hysteresis_rejected(self, sim, trace):
        with pytest.raises(ValueError, match="hysteresis"):
            make_optimizer(sim, trace, chain([2, 2]), hysteresis=-0.1)

    def test_negative_budget_rejected(self, sim, trace):
        with pytest.raises(ValueError, match="max_reparents"):
            make_optimizer(sim, trace, chain([2, 2]), max_reparents=-1)


class TestPathCosts:
    def test_a_pass_leaves_no_reference_cycle(self, sim, trace):
        """A recursive closure would refer to itself through its cell:
        cyclic garbage every pass, in a run that pauses the collector."""
        optimizer = make_optimizer(sim, trace, chain([2, 2, 2]))
        assert cycles_left_by(optimizer.path_costs) == 0

    def test_costs_accumulate_along_the_chain(self, sim, trace):
        optimizer = make_optimizer(sim, trace, chain([2, 2, 2]))
        costs = optimizer.path_costs()
        assert costs[0] == 0.0           # root
        assert costs[1] == 80.0          # one prior-cost hop
        assert costs[2] == 160.0         # two prior-cost hops

    def test_costs_reflect_link_state(self, sim, trace):
        optimizer = make_optimizer(sim, trace, chain([2, 2]))
        poison_edge(optimizer.linkstate, trace, node=2)
        costs = optimizer.path_costs()
        assert costs[1] == pytest.approx(100.0 * 80.0)  # capped ETX x prior


class TestReparenting:
    def test_reparents_away_from_a_dead_edge(self, sim, trace):
        # Region 2 hangs off region 0 over a dead edge; sibling region 1
        # is clean, so 2 should move under 1.
        hierarchy = star(2, [2, 2])
        hierarchy.set_parent(2, 0)
        optimizer = make_optimizer(sim, trace, hierarchy, update_interval=100.0)
        poison_edge(optimizer.linkstate, trace, node=4)  # node 4 in region 2
        optimizer.start()
        sim.run(until=150.0)
        assert hierarchy.regions[2].parent_id == 1
        assert optimizer.reparent_count == 1
        record = trace.first("tree_reparent")
        assert record["region"] == 2
        assert record["old_parent"] == 0
        assert record["new_parent"] == 1
        assert record["predicted_cost"] < record["previous_cost"]
        hierarchy.validate()  # still a legal tree

    def test_hysteresis_blocks_marginal_moves(self, sim, trace):
        hierarchy = star(2, [2, 2])
        optimizer = make_optimizer(sim, trace, hierarchy, hysteresis=0.5)
        # A mildly lossy parent edge: better alternatives exist but not
        # 50% better once the sibling hop is priced in.
        state = optimizer.linkstate.state(0, 2)
        state.observe_loss(0.15, 0.2)
        optimizer._update()
        assert hierarchy.regions[2].parent_id == 0
        assert optimizer.reparent_count == 0

    def test_zero_budget_never_moves(self, sim, trace):
        hierarchy = star(2, [2, 2])
        optimizer = make_optimizer(sim, trace, hierarchy, max_reparents=0)
        poison_edge(optimizer.linkstate, trace, node=2)
        optimizer._update()
        assert optimizer.reparent_count == 0
        assert trace.count("tree_reparent") == 0

    def test_at_most_one_reparent_per_pass(self, sim, trace):
        hierarchy = star(2, [2, 2, 2])
        poisoned = make_optimizer(sim, trace, hierarchy)
        poison_edge(poisoned.linkstate, trace, node=2)  # region 1
        poison_edge(poisoned.linkstate, trace, node=4)  # region 2
        poisoned._update()
        assert poisoned.reparent_count == 1
        poisoned._update()
        assert poisoned.reparent_count == 2

    def test_budget_bounds_the_session(self, sim, trace):
        hierarchy = star(2, [2, 2, 2])
        optimizer = make_optimizer(sim, trace, hierarchy,
                                   max_reparents=1, cooldown_passes=0)
        poison_edge(optimizer.linkstate, trace, node=2)
        poison_edge(optimizer.linkstate, trace, node=4)
        for _ in range(5):
            optimizer._update()
        assert optimizer.reparent_count == 1
        assert trace.count("tree_reparent") == 1

    def test_cooldown_keeps_a_moved_region_parked(self, sim, trace):
        hierarchy = star(2, [2, 2, 2])
        optimizer = make_optimizer(sim, trace, hierarchy, cooldown_passes=3)
        poison_edge(optimizer.linkstate, trace, node=2)  # region 1 -> moves
        optimizer._update()
        assert hierarchy.regions[1].parent_id == 2
        # Now poison the new edge too; region 3 is clean and strictly
        # better, but the region must sit out the cool-down first.
        poison_edge(optimizer.linkstate, trace, node=2)
        optimizer._update()
        optimizer._update()
        assert optimizer.reparent_count == 1
        optimizer._update()  # cool-down expired
        assert optimizer.reparent_count == 2
        assert hierarchy.regions[1].parent_id == 3

    def test_never_adopts_a_descendant(self, sim, trace):
        # chain 0 -> 1 -> 2; even with 1's parent edge dead, the only
        # non-parent candidate for region 1 is its own child 2, which
        # must be rejected (adopting it would make a cycle).
        hierarchy = chain([2, 2, 2])
        optimizer = make_optimizer(sim, trace, hierarchy)
        poison_edge(optimizer.linkstate, trace, node=2)  # region 1's edge
        assert optimizer._best_move(1, optimizer.path_costs()) is None
        # The full pass instead relieves the bottleneck legally: the
        # *grandchild* escapes the poisoned path by moving to the root.
        optimizer._update()
        assert hierarchy.regions[1].parent_id == 0
        assert hierarchy.regions[2].parent_id == 0
        hierarchy.validate()

    def test_never_adopts_an_empty_region(self, sim, trace):
        hierarchy = star(2, [2])
        hierarchy.add_region(2, parent_id=0)  # exists but empty
        optimizer = make_optimizer(sim, trace, hierarchy)
        poison_edge(optimizer.linkstate, trace, node=2)  # region 1's edge
        optimizer._update()
        # The only live alternative to the poisoned parent edge was the
        # empty region, which cannot serve repairs: no move.
        assert hierarchy.regions[1].parent_id == 0
        assert optimizer.reparent_count == 0


class TestLifecycle:
    def test_start_stop(self, sim, trace):
        optimizer = make_optimizer(sim, trace, chain([2, 2]),
                                   update_interval=50.0)
        assert not optimizer.running
        optimizer.start()
        assert optimizer.running
        sim.run(until=220.0)
        assert optimizer.update_count == 4
        optimizer.stop()
        optimizer.stop()  # idempotent
        assert not optimizer.running
        sim.run(until=500.0)
        assert optimizer.update_count == 4

    def test_clean_tree_is_left_alone(self, sim, trace):
        hierarchy = star(2, [2, 2])
        optimizer = make_optimizer(sim, trace, hierarchy, update_interval=50.0)
        optimizer.start()
        sim.run(until=500.0)
        assert optimizer.reparent_count == 0
        assert hierarchy.regions[1].parent_id == 0
        assert hierarchy.regions[2].parent_id == 0
