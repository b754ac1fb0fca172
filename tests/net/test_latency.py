"""Unit tests for latency models."""

import pytest

from repro.net.latency import ConstantLatency, HierarchicalLatency
from repro.net.topology import Hierarchy, chain, single_region

NOT_FINITE_OR_NEGATIVE = (float("nan"), float("inf"), -1.0)


class TestConstantLatency:
    def test_one_way_and_rtt(self):
        model = ConstantLatency(5.0)
        assert model.one_way(0, 1) == 5.0
        assert model.rtt(0, 1) == 10.0  # paper's 10 ms intra-region RTT

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    @pytest.mark.parametrize("value", NOT_FINITE_OR_NEGATIVE)
    def test_non_finite_rejected_like_negative(self, value):
        with pytest.raises(ValueError, match="one_way_ms must be finite and >= 0"):
            ConstantLatency(value)


class TestHierarchicalLatency:
    def test_intra_region_default_matches_paper(self):
        hierarchy = single_region(4)
        model = HierarchicalLatency(hierarchy)
        assert model.rtt(0, 1) == pytest.approx(10.0)

    def test_inter_region_scales_with_hops(self):
        hierarchy = chain([2, 2, 2])
        model = HierarchicalLatency(hierarchy, intra_one_way=5.0, inter_one_way=40.0)
        assert model.one_way(0, 2) == pytest.approx(40.0)   # one hop
        assert model.one_way(0, 4) == pytest.approx(80.0)   # two hops
        assert model.one_way(4, 0) == pytest.approx(80.0)   # symmetric

    def test_inter_region_exceeds_intra(self):
        """§3.2: 'inter-region latency can be much larger than intra'."""
        hierarchy = chain([2, 2])
        model = HierarchicalLatency(hierarchy)
        assert model.one_way(0, 2) > model.one_way(0, 1)


    @pytest.mark.parametrize("value", NOT_FINITE_OR_NEGATIVE)
    @pytest.mark.parametrize("name", ["intra_one_way", "inter_one_way",
                                      "inter_up_one_way", "inter_down_one_way"])
    def test_non_finite_rejected_like_negative(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            HierarchicalLatency(chain([2, 2]), **{name: value})


def disjoint_trees() -> Hierarchy:
    """Region 1 under root 0, and region 2 a root of its own tree."""
    hierarchy = Hierarchy()
    hierarchy.add_region(0)
    hierarchy.add_region(1, parent_id=0)
    hierarchy.add_region(2)
    hierarchy.add_member(1, 0)
    hierarchy.add_member(2, 1)
    return hierarchy


class TestRtt:
    def test_asymmetric_rtt_prices_each_direction_on_disjoint_trees(self):
        hierarchy = disjoint_trees()
        # The reverse split is not the forward one swapped: (1, 1), not (0, 2).
        assert hierarchy.region_hop_split(0, 1) == (2, 0)
        assert hierarchy.region_hop_split(1, 0) == (1, 1)
        model = HierarchicalLatency(hierarchy, inter_up_one_way=10.0,
                                    inter_down_one_way=30.0)
        for a, b in ((0, 1), (1, 0)):
            assert model.rtt(a, b) == model.one_way(a, b) + model.one_way(b, a) == 60.0

    def test_symmetric_rtt_is_both_one_way_delays(self):
        chained = chain([2, 2, 2])
        for hierarchy, pairs in ((chained, ((0, 1), (0, 2), (4, 0), (2, 5))),
                                 (disjoint_trees(), ((0, 1), (1, 0)))):
            model = HierarchicalLatency(hierarchy, intra_one_way=0.1, inter_one_way=0.7)
            for a, b in pairs:
                assert model.rtt(a, b) == model.one_way(a, b) + model.one_way(b, a)
        model = HierarchicalLatency(chained, intra_one_way=5.0, inter_one_way=40.0)
        assert (model.rtt(0, 1), model.rtt(0, 2), model.rtt(0, 4)) == (10.0, 80.0, 160.0)


class TestHierarchicalLatencyAsymmetric:
    def test_symmetric_defaults_use_the_original_formula(self):
        """Both directional fields None: byte-identical to the historical
        ``inter_one_way * hops`` product (golden digests depend on it)."""
        hierarchy = chain([2, 2, 2])
        plain = HierarchicalLatency(hierarchy, inter_one_way=40.0)
        explicit = HierarchicalLatency(hierarchy, inter_one_way=40.0,
                                       inter_up_one_way=None,
                                       inter_down_one_way=None)
        assert not plain.asymmetric
        assert not explicit.asymmetric
        for src, dst in ((0, 2), (0, 4), (4, 0), (2, 3)):
            assert explicit.one_way(src, dst) == plain.one_way(src, dst)

    def test_up_and_down_hops_priced_separately(self):
        # chain([2, 2]): nodes 2,3 sit one region *below* nodes 0,1.
        hierarchy = chain([2, 2])
        model = HierarchicalLatency(hierarchy, inter_up_one_way=10.0,
                                    inter_down_one_way=30.0)
        assert model.asymmetric
        assert model.one_way(2, 0) == pytest.approx(10.0)   # up
        assert model.one_way(0, 2) == pytest.approx(30.0)   # down
        assert model.rtt(0, 2) == pytest.approx(40.0)       # up + down

    def test_multi_hop_split(self):
        hierarchy = chain([2, 2, 2])
        model = HierarchicalLatency(hierarchy, inter_up_one_way=10.0,
                                    inter_down_one_way=30.0)
        assert model.one_way(4, 0) == pytest.approx(20.0)   # two up hops
        assert model.one_way(0, 4) == pytest.approx(60.0)   # two down hops

    def test_sibling_regions_cross_the_common_ancestor(self):
        # star: regions 1 and 2 are siblings under 0 -> one up, one down.
        from repro.net.topology import star
        hierarchy = star(2, [2, 2])
        model = HierarchicalLatency(hierarchy, inter_up_one_way=10.0,
                                    inter_down_one_way=30.0)
        assert model.one_way(2, 4) == pytest.approx(40.0)
        assert model.one_way(4, 2) == pytest.approx(40.0)

    def test_single_direction_falls_back_to_symmetric(self):
        hierarchy = chain([2, 2])
        model = HierarchicalLatency(hierarchy, inter_one_way=40.0,
                                    inter_up_one_way=15.0)
        assert model.asymmetric
        assert model.one_way(2, 0) == pytest.approx(15.0)   # explicit up
        assert model.one_way(0, 2) == pytest.approx(40.0)   # fallback down

    def test_intra_region_ignores_asymmetry(self):
        hierarchy = chain([2, 2])
        model = HierarchicalLatency(hierarchy, intra_one_way=5.0,
                                    inter_up_one_way=10.0,
                                    inter_down_one_way=30.0)
        assert model.one_way(0, 1) == 5.0

    def test_negative_directional_delay_rejected(self):
        hierarchy = chain([2, 2])
        with pytest.raises(ValueError):
            HierarchicalLatency(hierarchy, inter_up_one_way=-1.0)
        with pytest.raises(ValueError):
            HierarchicalLatency(hierarchy, inter_down_one_way=-1.0)


class TestHopTableInvalidation:
    """Hierarchy keeps each region pair's hops after the first query;
    each of these reads a delay first, so a table that is never dropped
    would answer with the old tree."""

    def test_reparent_moves_one_way_rtt_and_distance_together(self):
        hierarchy = chain([2, 2, 2])  # nodes 4, 5 two hops below 0, 1
        model = HierarchicalLatency(hierarchy, intra_one_way=5.0, inter_one_way=40.0)
        assert (model.one_way(4, 0), model.rtt(4, 0), hierarchy.region_distance(4, 0)) \
            == (80.0, 160.0, 2)
        hierarchy.set_parent(2, 0)
        assert (model.one_way(4, 0), model.rtt(4, 0), hierarchy.region_distance(4, 0)) \
            == (40.0, 80.0, 1)

    def test_a_moved_node_gets_its_new_regions_delay(self):
        from repro.net.topology import star
        hierarchy = star(2, [2, 2])  # regions 1 (nodes 2, 3) and 2 (4, 5) under 0
        model = HierarchicalLatency(hierarchy, inter_one_way=40.0)
        assert model.one_way(2, 0) == 40.0
        assert model.one_way(4, 0) == 40.0
        hierarchy.set_parent(2, 1)
        assert model.one_way(2, 0) == 40.0  # region 1 did not move
        hierarchy.remove_member(2)  # node 2 moves from region 1 into region 2
        hierarchy.add_member(2, 2)
        assert model.one_way(2, 0) == 80.0
        assert model.one_way(2, 4) == 5.0
        assert model.one_way(3, 2) == 40.0

    def test_asymmetric_delays_are_repriced_after_a_reparent(self):
        hierarchy = chain([2, 2, 2])
        model = HierarchicalLatency(hierarchy, inter_up_one_way=10.0,
                                    inter_down_one_way=30.0)
        assert (model.one_way(4, 0), model.one_way(0, 4)) == (20.0, 60.0)
        assert hierarchy.region_hop_split(4, 2) == (1, 0)
        hierarchy.set_parent(2, 0)  # region 2 becomes region 1's sibling
        assert (model.one_way(4, 0), model.one_way(0, 4)) == (10.0, 30.0)
        assert hierarchy.region_hop_split(4, 2) == (1, 1)
        assert model.one_way(4, 2) == 40.0
