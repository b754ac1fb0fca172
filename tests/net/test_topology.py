"""Unit tests for regions and the error-recovery hierarchy."""

import pytest

from repro.net.topology import (
    Hierarchy,
    TopologyError,
    balanced_tree,
    chain,
    single_region,
    star,
)
from tests.conftest import assert_views_match_a_fresh_scan


class TestConstruction:
    def test_single_region(self):
        hierarchy = single_region(5)
        assert hierarchy.size == 5
        assert hierarchy.regions[0].size == 5
        assert hierarchy.regions[0].parent_id is None

    def test_chain_parent_links(self):
        hierarchy = chain([3, 4, 5])
        assert hierarchy.regions[0].parent_id is None
        assert hierarchy.regions[1].parent_id == 0
        assert hierarchy.regions[2].parent_id == 1
        assert hierarchy.size == 12

    def test_star_layout(self):
        hierarchy = star(2, [3, 3, 3])
        assert hierarchy.regions[0].parent_id is None
        for leaf in (1, 2, 3):
            assert hierarchy.regions[leaf].parent_id == 0
        assert hierarchy.size == 11

    def test_balanced_tree_region_count(self):
        hierarchy = balanced_tree(depth=2, fanout=2, region_size=1)
        assert len(hierarchy.regions) == 7  # 1 + 2 + 4

    def test_duplicate_region_rejected(self):
        hierarchy = Hierarchy()
        hierarchy.add_region(0)
        with pytest.raises(TopologyError):
            hierarchy.add_region(0)

    def test_missing_parent_rejected(self):
        hierarchy = Hierarchy()
        with pytest.raises(TopologyError):
            hierarchy.add_region(1, parent_id=99)

    def test_duplicate_node_rejected(self):
        hierarchy = Hierarchy()
        hierarchy.add_region(0)
        hierarchy.add_member(0, node_id=7)
        with pytest.raises(TopologyError):
            hierarchy.add_member(0, node_id=7)

    def test_auto_node_ids_are_dense(self):
        hierarchy = chain([2, 2])
        assert hierarchy.nodes == [0, 1, 2, 3]


class TestQueries:
    @pytest.fixture
    def three_regions(self):
        return chain([3, 4, 5])

    def test_region_of(self, three_regions):
        assert three_regions.region_id_of(0) == 0
        assert three_regions.region_id_of(3) == 1
        assert three_regions.region_id_of(11) == 2

    def test_unknown_node_raises(self, three_regions):
        with pytest.raises(TopologyError):
            three_regions.region_of(99)

    def test_neighbors_excludes_self(self, three_regions):
        neighbors = three_regions.neighbors(3)
        assert 3 not in neighbors
        assert set(neighbors) == {4, 5, 6}

    def test_parent_members(self, three_regions):
        assert set(three_regions.parent_members(3)) == {0, 1, 2}
        assert three_regions.parent_members(0) == ()  # root has no parent

    def test_parent_region_of_root_is_none(self, three_regions):
        assert three_regions.parent_region_of(1) is None

    def test_same_region(self, three_regions):
        assert three_regions.same_region(3, 4)
        assert not three_regions.same_region(0, 3)

    def test_region_distance_chain(self, three_regions):
        assert three_regions.region_distance(0, 1) == 0
        assert three_regions.region_distance(0, 3) == 1
        assert three_regions.region_distance(0, 7) == 2
        assert three_regions.region_distance(7, 0) == 2

    def test_region_distance_siblings(self):
        hierarchy = star(1, [1, 1])
        left, right = hierarchy.regions[1].members[0], hierarchy.regions[2].members[0]
        assert hierarchy.region_distance(left, right) == 2

    def test_contains(self, three_regions):
        assert three_regions.contains(0)
        assert not three_regions.contains(99)


class TestMutation:
    def test_remove_member(self):
        hierarchy = single_region(3)
        hierarchy.remove_member(1)
        assert hierarchy.size == 2
        assert not hierarchy.contains(1)
        assert 1 not in hierarchy.regions[0].members

    def test_remove_unknown_raises(self):
        hierarchy = single_region(3)
        with pytest.raises(TopologyError):
            hierarchy.remove_member(99)

    def test_add_member_after_removal_gets_fresh_id(self):
        hierarchy = single_region(3)
        hierarchy.remove_member(2)
        new = hierarchy.add_member(0)
        assert new == 3  # ids are never reused

    def test_validate_passes_on_builders(self):
        for hierarchy in (single_region(4), chain([2, 2]), star(1, [2]),
                          balanced_tree(1, 2, 2)):
            hierarchy.validate()

    def test_validate_detects_cycle(self):
        hierarchy = chain([1, 1])
        hierarchy.regions[0].parent_id = 1  # corrupt: 0 <-> 1
        with pytest.raises(TopologyError):
            hierarchy.validate()

    def test_validate_detects_double_placement(self):
        hierarchy = chain([2, 2])
        hierarchy.regions[1].members.append(0)  # node 0 also in region 1
        with pytest.raises(TopologyError):
            hierarchy.validate()


class TestSharedMemberViews:
    def test_views_follow_add_and_remove(self):
        hierarchy = chain([3, 4])
        assert_views_match_a_fresh_scan(hierarchy)
        hierarchy.add_member(1)
        assert_views_match_a_fresh_scan(hierarchy)
        hierarchy.remove_member(4)
        assert_views_match_a_fresh_scan(hierarchy)
        moved = hierarchy.regions[1].members[0]  # a handoff: leave, rejoin elsewhere
        hierarchy.remove_member(moved)
        hierarchy.add_member(0, node_id=moved)
        assert_views_match_a_fresh_scan(hierarchy)
        assert hierarchy.peers_of(moved)[1] == 3

    def test_a_held_tuple_is_never_mutated(self):
        hierarchy = single_region(3)
        region = hierarchy.regions[0]
        held = region.member_ids()
        hierarchy.add_member(0)
        hierarchy.remove_member(0)
        assert held == (0, 1, 2)
        assert region.member_ids() == (1, 2, 3)

    def test_other_regions_keep_their_view_across_a_change(self):
        hierarchy = chain([3, 3])
        untouched = hierarchy.regions[0].member_ids()
        hierarchy.add_member(1)
        assert hierarchy.regions[0].member_ids() is untouched

    def test_membership_test_needs_no_scan(self):
        region = single_region(3).regions[0]
        assert 2 in region and 3 not in region
        region.member_ids()
        assert 2 in region and 3 not in region


class TestSetParent:
    def test_moves_the_link_and_parent_members_follow(self):
        hierarchy = star(2, [2, 2])  # regions 1 and 2 hang off 0
        node = hierarchy.regions[2].members[0]
        assert hierarchy.parent_members(node) == hierarchy.regions[0].member_ids()
        hierarchy.set_parent(2, 1)
        assert hierarchy.regions[2].parent_id == 1
        assert hierarchy.parent_members(node) is hierarchy.regions[1].member_ids()
        hierarchy.validate()

    def test_detaching_makes_a_root(self):
        hierarchy = chain([1, 1])
        hierarchy.set_parent(1, None)
        assert hierarchy.parent_members(1) == ()

    @pytest.mark.parametrize("region_id, parent_id", [
        (0, 0),   # own parent
        (0, 2),   # a descendant
        (1, 2),   # a child
    ])
    def test_a_move_that_closes_a_cycle_is_refused(self, region_id, parent_id):
        hierarchy = chain([1, 1, 1])
        with pytest.raises(TopologyError, match="cycle"):
            hierarchy.set_parent(region_id, parent_id)
        hierarchy.validate()  # and nothing was changed

    def test_unknown_regions_are_refused(self):
        hierarchy = chain([1, 1])
        with pytest.raises(TopologyError):
            hierarchy.set_parent(1, 99)
        with pytest.raises(TopologyError):
            hierarchy.set_parent(99, 0)
        assert hierarchy.regions[1].parent_id == 0
