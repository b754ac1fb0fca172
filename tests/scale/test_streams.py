"""Bulk-seeded one-draw streams of the flat engine.

``pcg64_states`` must reproduce numpy's own seeding bit for bit (the
flat digests depend on every draw), and ``FlatShard._once`` must hand
out a generator that draws what a fresh ``default_rng`` would.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.scale.engine import FlatShard, run_flat
from repro.scale.streams import pcg64_states
from repro.scenario.library import scale_spec
from repro.sim.randomness import derive_seed

EDGE_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def small_spec(seed=1):
    """4 regions x 6 members, lossy enough that recovery always fires."""
    return scale_spec(
        regions=4, members_per_region=6, messages=4, loss_rate=0.3, seed=seed,
    )


def numpy_state(seed):
    state = np.random.default_rng(seed).bit_generator.state["state"]
    return state["state"], state["inc"]


def test_bulk_states_equal_numpy_seeding():
    draw = random.Random(0)
    seeds = (EDGE_SEEDS + list(range(100))
             + [draw.getrandbits(32) for _ in range(100)]
             + [draw.getrandbits(64) for _ in range(10_000)])
    assert pcg64_states(seeds) == [numpy_state(seed) for seed in seeds]


def _key_seed(engine, key):
    return derive_seed(engine.spec.seed, ("flat",) + key)


def test_once_draws_what_a_fresh_generator_draws():
    engine = FlatShard(small_spec())
    key = ("mcast", engine.owned[0], 2)
    fresh = np.random.default_rng(_key_seed(engine, key))
    assert np.array_equal(engine._once(*key).random(1000), fresh.random(1000))
    key = ("recovery", engine.owned[1], 3)
    fresh = np.random.default_rng(_key_seed(engine, key))
    assert np.array_equal(engine._once(*key).integers(0, 37, 50),
                          fresh.integers(0, 37, 50))


def test_once_resets_the_buffered_half_word():
    """An odd count of 32-bit draws leaves half a word buffered in the
    shared generator; the next key must not see it."""
    engine = FlatShard(small_spec())
    engine._once("recovery", engine.owned[0], 1).integers(0, 37, 51)
    key = ("recovery", engine.owned[0], 2)
    fresh = np.random.default_rng(_key_seed(engine, key))
    assert np.array_equal(engine._once(*key).integers(0, 37, 51),
                          fresh.integers(0, 37, 51))


def test_a_once_key_is_drawn_from_once():
    engine = FlatShard(small_spec())
    key = ("mcast", engine.owned[0], 1)
    engine._once(*key)
    with pytest.raises(KeyError):
        engine._once(*key)


def test_shard_seeds_only_its_own_regions():
    spec = small_spec()
    whole = FlatShard(spec)
    part = FlatShard(spec, owned=whole.owned[1::2])
    assert {key[1] for key in part._seeded} == set(whole.owned[1::2])
    assert {key: whole._seeded[key] for key in part._seeded} == part._seeded


def test_only_coin_and_serve_streams_build_a_generator(monkeypatch):
    built = []
    default_rng = np.random.default_rng

    def counting(seed):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    spec = small_spec()
    [engine] = run_flat(spec, digest=False).engines
    kinds = [key[0] for key in engine._rngs]
    assert set(kinds) <= {"coin", "serve"}
    assert len(built) == len(engine._rngs)
    assert len(built) <= len(engine.owned) + kinds.count("serve")
    assert engine.stats()["recoveries"] > 0  # the one-draw streams were drawn
