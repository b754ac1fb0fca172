"""The region-pair hop table answers what a fresh ancestry walk does.

:class:`~repro.net.topology.Hierarchy` walks each region pair's
ancestry once and keeps ``(up, down)``; :meth:`Hierarchy.set_parent`
drops the table.  Generated programs build a chain, star or balanced
tree, then interleave legal re-parents (detaching a region into a
second root included), member moves between regions and queries.
After every step each queried pair's ``region_hop_split``,
``region_distance`` and both latency models' ``one_way`` and ``rtt``
must equal values recomputed here from the parent links alone, and so
must a fan-out's ``delays`` from one node to every node, which price
each destination region once per call.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.net.latency import HierarchicalLatency, LatencyModel
from repro.net.topology import balanced_tree, chain, star

INTRA, INTER, UP, DOWN = 5.0, 40.0, 10.0, 30.0

shapes = st.one_of(
    st.builds(chain, st.lists(st.integers(1, 3), min_size=1, max_size=6)),
    st.builds(star, st.integers(1, 3), st.lists(st.integers(1, 3), min_size=1, max_size=5)),
    st.builds(balanced_tree, st.integers(0, 2), st.integers(1, 3), st.integers(1, 2)),
)
steps = st.lists(
    st.tuples(st.sampled_from(("reparent", "move", "query")),
              st.integers(0, 63), st.integers(0, 63), st.integers(0, 63)),
    max_size=30,
)


def walked_split(hierarchy, a, b):
    """``(up, down)`` from the parent links, with no table in between."""
    def to_root(region_id):
        path = []
        while region_id is not None:
            path.append(region_id)
            region_id = hierarchy.regions[region_id].parent_id
        return path

    path_a = to_root(hierarchy.region_id_of(a))
    path_b = to_root(hierarchy.region_id_of(b))
    for down, region_id in enumerate(path_b):
        if region_id in path_a:
            return path_a.index(region_id), down
    return len(path_a), len(path_b) - 1  # disjoint: one root-to-root hop


def walked_one_way(hierarchy, a, b, asymmetric):
    up, down = walked_split(hierarchy, a, b)
    if up + down == 0:
        return INTRA
    return up * UP + down * DOWN if asymmetric else INTER * (up + down)


def check_pair(hierarchy, models, a, b):
    up, down = walked_split(hierarchy, a, b)
    assert hierarchy.region_hop_split(a, b) == (up, down)
    assert hierarchy.region_distance(a, b) == up + down
    for asymmetric, model in models.items():
        expected = walked_one_way(hierarchy, a, b, asymmetric)
        assert model.one_way(a, b) == expected
        assert model.rtt(a, b) == expected + walked_one_way(hierarchy, b, a, asymmetric)


@given(shapes, steps)
def test_table_matches_a_fresh_walk(hierarchy, program):
    models = {
        False: HierarchicalLatency(hierarchy, INTRA, INTER),
        True: HierarchicalLatency(hierarchy, INTRA, INTER, UP, DOWN),
    }
    region_ids = sorted(hierarchy.regions)
    for op, i, j, k in program:
        nodes = hierarchy.nodes
        if op == "reparent":
            region_id = region_ids[i % len(region_ids)]
            choices = [None] + [r for r in region_ids if region_id not in hierarchy.ancestry(r)]
            hierarchy.set_parent(region_id, choices[j % len(choices)])
        elif op == "move":
            node = nodes[i % len(nodes)]
            hierarchy.remove_member(node)
            hierarchy.add_member(region_ids[j % len(region_ids)], node)
        else:
            check_pair(hierarchy, models, nodes[i % len(nodes)], nodes[j % len(nodes)])
        nodes = hierarchy.nodes
        check_pair(hierarchy, models, nodes[k % len(nodes)], nodes[(i + j) % len(nodes)])
        check_fan_out(hierarchy, models, nodes[i % len(nodes)], nodes[j % len(nodes):] + nodes)
    hierarchy.validate()


def check_fan_out(hierarchy, models, src, dsts):
    for asymmetric, model in models.items():
        expected = [walked_one_way(hierarchy, src, dst, asymmetric) for dst in dsts]
        assert model.delays(src, dsts) == expected
        assert LatencyModel.delays(model, src, dsts) == expected  # the default loop
