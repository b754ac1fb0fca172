"""FlatMemberPool unit tests: layout contract, column life cycle and
aggregate queries."""

import pytest

from repro.net.topology import Hierarchy, star
from repro.scale.pool import FlatMemberPool


def _pool(regions=3, members=4, messages=5) -> FlatMemberPool:
    hierarchy = star(root_size=members, leaf_sizes=[members] * (regions - 1))
    return FlatMemberPool(hierarchy, messages)


def _deliver_all(pool, region_id, col, holders=()):
    """Every member of the region received column *col*; *holders* keep
    it long-term, as after the idle sweep."""
    column = pool.column(region_id, col)
    column.received[:] = True
    column.buffered[list(holders)] = True
    column.long_term[list(holders)] = True
    return column


class TestLayoutContract:
    def test_regions_map_to_contiguous_row_ranges(self):
        pool = _pool(regions=3, members=4)
        ranges = sorted(pool.region_rows.values())
        assert ranges == [(0, 4), (4, 8), (8, 12)]
        assert pool.size == 12

    def test_non_contiguous_node_ids_rejected(self):
        hierarchy = Hierarchy()
        hierarchy.add_region(0)
        hierarchy.add_member(0, 0)
        hierarchy.add_member(0, 7)  # hole: FlatMemberPool cannot slice this
        with pytest.raises(ValueError, match="contiguous"):
            FlatMemberPool(hierarchy, 3)

    def test_message_count_must_be_positive(self):
        hierarchy = star(root_size=2, leaf_sizes=[])
        with pytest.raises(ValueError, match="message_count"):
            FlatMemberPool(hierarchy, 0)

    def test_arrays_are_column_contiguous(self):
        """One region's members for one message -- every slice the
        engine takes -- is one contiguous vector, at any stream length."""
        pool = _pool(regions=3, members=4, messages=5)
        column = pool.column(1, 3)
        for array in (column.received, column.buffered, column.long_term,
                      column.given_up):
            assert array.shape == (4,)
            assert array.flags.c_contiguous


class TestColumnLifeCycle:
    def test_a_column_opens_once_and_closes_for_good(self):
        pool = _pool(regions=2, members=3, messages=2)
        column = pool.column(0, 1)
        assert pool.column(0, 1) is column
        _deliver_all(pool, 0, 1, holders=[2])
        assert pool.settle(0, 1)
        assert pool.column(0, 1) is None
        assert list(pool.open_columns[0]) == []
        assert pool.holders(0, 1).tolist() == [2]

    def test_settle_waits_for_every_member_still_recovering(self):
        pool = _pool(regions=1, members=3, messages=1)
        column = pool.column(0, 0)
        column.received[[0, 1]] = True
        assert not pool.settle(0, 0)
        column.given_up[2] = True
        assert pool.settle(0, 0)
        record = pool.closed_columns[0][0]
        assert record.given_up_rows().tolist() == [2]
        assert pool.given_up_pairs() == 1
        assert pool.delivered_pairs() == 2

    def test_closed_record_keeps_only_holder_and_given_up_rows(self):
        pool = _pool(regions=1, members=1_000, messages=1)
        _deliver_all(pool, 0, 0, holders=[5, 600, 999])
        assert pool.nbytes() == 4 * 1_000
        pool.settle(0, 0)
        assert pool.nbytes() == 3 * 4

    def test_peak_counts_columns_open_at_once(self):
        pool = _pool(regions=2, members=2, messages=3)
        for col in range(3):
            _deliver_all(pool, 0, col)
            pool.settle(0, col)
        assert pool.peak_open_columns == 1
        pool.column(0, 0)  # closed: not reopened
        pool.column(1, 0)
        pool.column(1, 1)
        assert pool.peak_open_columns == 2


class TestAggregates:
    def test_fresh_pool_is_empty(self):
        pool = _pool()
        assert pool.delivered_pairs() == 0
        assert pool.given_up_pairs() == 0
        assert pool.long_term_copies(1) == 0
        assert pool.holders(0, 0).size == 0
        assert pool.nbytes() == 0

    def test_delivered_pairs_slices_by_region(self):
        pool = _pool(regions=3, members=4, messages=2)
        _deliver_all(pool, 0, 0)  # first region fully delivered: one
        _deliver_all(pool, 0, 1)  # column open, one closed
        pool.settle(0, 1)
        assert pool.delivered_pairs(0) == 8
        assert pool.delivered_pairs(1) == 0
        assert pool.delivered_pairs() == 8

    def test_member_views_match_bitmaps(self):
        pool = _pool(regions=1, members=2, messages=4)
        _deliver_all(pool, 0, 0, holders=[0])
        pool.settle(0, 0)
        column = pool.column(0, 1)
        column.received[:] = [True, False]
        _deliver_all(pool, 0, 2)
        pool.column(0, 2).buffered[0] = True
        # seq 4 has not reached the region
        assert pool.member_seqs(0) == [([1, 3], [4]), ([], [2, 4])]

    def test_long_term_copies_counts_one_column(self):
        pool = _pool(regions=2, members=3, messages=2)
        _deliver_all(pool, 0, 1, holders=[0])
        _deliver_all(pool, 1, 1, holders=[1])
        pool.settle(1, 1)
        assert pool.long_term_copies(2) == 2
        assert pool.long_term_copies(1) == 0

    def test_nbytes_scales_with_population(self):
        small, big = _pool(regions=1, members=10), _pool(regions=1, members=20)
        for pool in (small, big):
            pool.column(0, 0)
        assert small.nbytes() == 4 * 10
        assert big.nbytes() == 2 * small.nbytes()
