"""FlatMemberPool unit tests: layout contract and aggregate queries."""

import numpy as np
import pytest

from repro.net.topology import Hierarchy, star
from repro.scale.pool import FlatMemberPool


def _pool(regions=3, members=4, messages=5) -> FlatMemberPool:
    hierarchy = star(root_size=members, leaf_sizes=[members] * (regions - 1))
    return FlatMemberPool(hierarchy, messages)


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
        engine takes -- is one contiguous run, at any stream length."""
        pool = _pool(regions=3, members=4, messages=5)
        start, stop = pool.rows(1)
        for array in (pool.received, pool.buffered, pool.long_term,
                      pool.given_up, pool.receive_time, pool.idle_deadline):
            assert array.shape == (12, 5)
            assert array[start:stop, 3].flags.c_contiguous


class TestAggregates:
    def test_fresh_pool_is_empty(self):
        pool = _pool()
        assert pool.delivered_pairs() == 0
        assert not pool.buffered.any()
        assert pool.given_up_pairs() == 0
        assert np.all(np.isinf(pool.idle_deadline))

    def test_delivered_pairs_slices_by_region(self):
        pool = _pool(regions=3, members=4, messages=2)
        pool.received[0:4, :] = True  # first region fully delivered
        assert pool.delivered_pairs(rows=(0, 4)) == 8
        assert pool.delivered_pairs(rows=(4, 8)) == 0
        assert pool.delivered_pairs() == 8

    def test_member_views_match_bitmaps(self):
        pool = _pool(regions=1, members=2, messages=4)
        pool.buffered[0, [0, 2]] = True
        pool.received[0, [0, 1, 2]] = True
        assert pool.member_buffered_seqs(0) == [1, 3]
        assert pool.member_unresolved_gaps(0) == [4]
        assert pool.member_is_buffering(0, 3)
        assert not pool.member_is_buffering(0, 2)

    def test_long_term_copies_counts_one_column(self):
        pool = _pool(regions=2, members=3, messages=2)
        pool.long_term[[0, 4], 1] = True
        assert pool.long_term_copies(2) == 2
        assert pool.long_term_copies(1) == 0

    def test_nbytes_scales_with_population(self):
        small, big = _pool(regions=1, members=10), _pool(regions=1, members=20)
        assert big.nbytes() == 2 * small.nbytes()
