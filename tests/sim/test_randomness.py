"""Unit tests for deterministic named RNG streams."""

import copy
import random

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.randomness import RandomStreams, derive_seed, pick_other


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, ("a", 2)) == derive_seed(1, ("a", 2))

    def test_different_names_differ(self):
        assert derive_seed(1, ("a",)) != derive_seed(1, ("b",))

    def test_different_master_seeds_differ(self):
        assert derive_seed(1, ("a",)) != derive_seed(2, ("a",))

    def test_name_parts_are_not_concatenated(self):
        # ("ab",) must differ from ("a", "b")
        assert derive_seed(1, ("ab",)) != derive_seed(1, ("a", "b"))

    def test_int_and_str_parts_distinguished(self):
        assert derive_seed(1, (1,)) != derive_seed(1, ("1",))


class TestRandomStreams:
    def test_same_name_returns_same_instance(self):
        streams = RandomStreams(42)
        assert streams.stream("x") is streams.stream("x")

    def test_streams_are_reproducible_across_factories(self):
        a = RandomStreams(42).stream("member", 3).random()
        b = RandomStreams(42).stream("member", 3).random()
        assert a == b

    def test_streams_are_independent(self):
        streams = RandomStreams(42)
        a = [streams.stream("a").random() for _ in range(10)]
        b = [streams.stream("b").random() for _ in range(10)]
        assert a != b

    def test_consuming_one_stream_does_not_affect_another(self):
        reference = RandomStreams(7)
        baseline = [reference.stream("target").random() for _ in range(3)]
        streams = RandomStreams(7)
        for _ in range(1000):
            streams.stream("noise").random()
        observed = [streams.stream("target").random() for _ in range(3)]
        assert observed == baseline

    def test_spawn_creates_disjoint_namespace(self):
        parent = RandomStreams(42)
        child = parent.spawn("rep", 1)
        assert child.master_seed != parent.master_seed
        assert child.stream("x").random() != parent.stream("x").random()

    def test_spawn_is_deterministic(self):
        a = RandomStreams(42).spawn("rep", 1).stream("x").random()
        b = RandomStreams(42).spawn("rep", 1).stream("x").random()
        assert a == b

    def test_streams_cover_unit_interval(self):
        stream = RandomStreams(0).stream("uniform")
        values = [stream.random() for _ in range(2000)]
        assert 0.4 < sum(values) / len(values) < 0.6
        assert min(values) >= 0.0
        assert max(values) < 1.0


class TestLazyStreams:
    def test_handle_creates_nothing_until_drawn_from(self):
        streams = RandomStreams(42)
        rng = streams.lazy("member", 3, "search")
        assert len(streams) == 0 and streams.names() == []
        rng.random()
        assert streams.names() == [("member", 3, "search")]

    def test_handle_and_direct_callers_share_one_stream(self):
        reference = RandomStreams(42).stream("x")
        expected = [reference.random() for _ in range(4)]
        streams = RandomStreams(42)
        rng = streams.lazy("x")
        observed = [rng.random(), streams.stream("x").random(),
                    streams.lazy("x").random(), rng.random()]
        assert observed == expected
        assert len(streams) == 1

    def test_first_access_binds_the_real_method_onto_the_handle(self):
        streams = RandomStreams(42)
        rng = streams.lazy("x")
        rng.choice([1, 2, 3])
        assert rng.choice.__self__ is streams.stream("x")
        assert "choice" in vars(rng) and "random" not in vars(rng)

    def test_private_names_are_not_forwarded(self):
        streams = RandomStreams(42)
        rng = streams.lazy("x")
        assert not hasattr(rng, "_gauss_next") and not hasattr(rng, "__wrapped__")
        duplicate = copy.copy(rng)  # probes dunders on a bare instance
        assert len(streams) == 0
        assert duplicate.random() == RandomStreams(42).stream("x").random()


stream_names = st.lists(
    st.tuples(st.sampled_from(["member", "fd", "stability"]), st.integers(0, 40),
              st.sampled_from(["search", "policy"])),
    min_size=1, max_size=8, unique=True,
)


class TestCreationOrderIsUnobservable:
    """The equivalence the golden digests rest on: *when* a stream is
    created (eagerly at construction, or by its first draw in any
    interleaving with the others) cannot change what it draws."""

    DRAWS = 4

    @given(seed=st.integers(0, 2**63), names=stream_names,
           spawned=st.booleans(), data=st.data())
    def test_lazy_draws_in_any_interleaving_equal_eager_draws(
        self, seed, names, spawned, data
    ):
        def factory():
            root = RandomStreams(seed)
            return root.spawn("rep", 3) if spawned else root

        eager = factory()
        eager_streams = [eager.stream(*name) for name in names]
        assert eager.names() == names  # all exist before any draw
        expected = {name: [rng.random() for _ in range(self.DRAWS)]
                    for name, rng in zip(names, eager_streams)}

        lazy = factory()
        handles = {name: lazy.lazy(*name) for name in names}
        assert len(lazy) == 0
        schedule = data.draw(st.permutations(names * self.DRAWS))
        observed = {name: [] for name in names}
        for name in schedule:
            observed[name].append(handles[name].random())
        assert observed == expected
        assert lazy.names() == list(dict.fromkeys(schedule))  # first-draw order


class TestPickOther:
    """Index-skip is ``choice`` on the list with one member filtered
    out: same element, same single draw, same generator state after."""

    @given(seed=st.integers(0, 2**63), n=st.integers(2, 300), data=st.data())
    def test_same_element_and_same_state_as_choice_on_the_filtered_list(
        self, seed, n, data
    ):
        position = data.draw(st.integers(0, n - 1))
        members = tuple(range(1000, 1000 + n))
        skipping, filtering = random.Random(seed), random.Random(seed)
        for _ in range(3):
            candidates = [m for m in members if m != members[position]]
            assert pick_other(skipping, members, position) == filtering.choice(candidates)
            assert skipping.getstate() == filtering.getstate()

    def test_never_returns_the_skipped_member(self):
        rng = RandomStreams(1).lazy("pick")
        picks = {pick_other(rng, (10, 11, 12), 1) for _ in range(200)}
        assert picks == {10, 12}
