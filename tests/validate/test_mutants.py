"""Mutants of the §3.2 long-term coin, and an aggregate check that kills them.

A mutant monkeypatches ``repro.core.manager.keeps_long_term`` for one
run; nothing in ``src/`` knows it exists.  The check compares what the
coin kept with what it should have kept: every ``buffer_idle`` record
is one flip with P = min(1, C/n) for its member's region size n, so the
count of ``long_term_selected`` records with ``via="coin-flip"`` must lie
within 4σ of ΣP, where σ² = ΣP(1−P).  The oracle's ``LongTermQuota``
bounds the holders of a message from above only, so it passes both
mutants (the kill matrix is in EXPERIMENTS.md, "Mutant catalogue").

Both scenarios keep their membership static, so a member's region size
read after the run is the one its coin saw, and both run with C = 6.
"""

from __future__ import annotations

import math

import pytest

from repro.core import manager
from repro.core.long_term import keeps_long_term, long_term_probability
from repro.scenario.library import get_scenario

SCENARIOS = ("wan_burst_loss", "streaming_playback")

#: A mutant's z-score must reach this many standard deviations.
KILL_SIGMAS = 4.0


def never_keep(rng, expected_bufferers, region_size):
    return False


def keep_at_twice_c(rng, expected_bufferers, region_size):
    return keeps_long_term(rng, 2.0 * expected_bufferers, region_size)


MUTANTS = {"never keep": never_keep, "keep at 2C/n": keep_at_twice_c}


def coin_z(name: str) -> float:
    """(kept − expected) / σ over every idle coin flip of one run."""
    spec = get_scenario(name)
    assert spec.churn.kind == "none" and not spec.mobility.enabled, name
    simulation = spec.run().simulation
    trace = simulation.trace
    kept = sum(1 for record in trace.of_kind("long_term_selected")
               if record["via"] == "coin-flip")
    probabilities = [
        long_term_probability(spec.policy.c,
                              simulation.members[record["node"]].region_size())
        for record in trace.of_kind("buffer_idle")
    ]
    expected = sum(probabilities)
    variance = sum(p * (1.0 - p) for p in probabilities)
    assert variance > 0.0, f"{name}: no uncertain coin flipped"
    return (kept - expected) / math.sqrt(variance)


@pytest.mark.parametrize("name", SCENARIOS)
def test_the_unmutated_coin_passes(name):
    assert abs(coin_z(name)) < KILL_SIGMAS


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_coin_mutant_is_killed(mutant, name, monkeypatch):
    monkeypatch.setattr(manager, "keeps_long_term", MUTANTS[mutant])
    assert abs(coin_z(name)) >= KILL_SIGMAS
