"""Golden spec digests: what a spec serialises to, pinned.

The trace-digest baselines pin what a scenario *does*; this file pins
what a spec *is*.  :meth:`ScenarioSpec.digest` keys the sweep runner's
result cache and every artifact that names a spec, so a refactor of the
spec tree that moved it (a field serialised at its default, an ``int``
stored where a ``float`` was) would silently orphan every cached result
while the subprocess-stability test, which compares the tree with
itself, still passed.  Covered: every registry spec on both engines
and the first 50 fuzzer specs of seed 0.  The re-bless rule is the one
of ``test_scenario_digests.py``:

    RRMP_UPDATE_BASELINES=1 PYTHONPATH=src python -m pytest tests/baselines/test_spec_digests.py

A new key is blessed on the parent commit first, so its digest is the
one the unchanged code produced.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.scenario.library import get_scenario, scenario_names
from repro.scenario.spec import ScenarioSpec
from repro.validate.fuzz import sample_spec

BASELINE_PATH = Path(__file__).parent / "spec_digests.json"
UPDATE_ENV = "RRMP_UPDATE_BASELINES"
UPDATING = bool(os.environ.get(UPDATE_ENV))
FUZZ_SPECS = 50


def _cases() -> Dict[str, Callable[[], ScenarioSpec]]:
    cases: Dict[str, Callable[[], ScenarioSpec]] = {}
    for engine in ("object", "flat"):
        for name in scenario_names(engine):
            cases[f"{engine}/{name}"] = lambda name=name: get_scenario(name)
    for index in range(FUZZ_SPECS):
        cases[f"fuzz/0/{index:02d}"] = lambda index=index: sample_spec(0, index)
    return cases


CASES = _cases()


def _load_baselines() -> dict:
    if not BASELINE_PATH.exists():
        return {}
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("key", sorted(CASES))
def test_spec_digest_matches_baseline(key: str) -> None:
    fresh = CASES[key]().digest()
    if UPDATING:
        baselines = _load_baselines()
        baselines[key] = fresh
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(dict(sorted(baselines.items())), handle, indent=2)
            handle.write("\n")
        pytest.skip(f"baseline for {key!r} updated ({UPDATE_ENV} set)")
    expected = _load_baselines().get(key)
    assert fresh == expected, (
        f"spec {key!r} digests to {fresh}, baseline {expected}.  Every cached "
        f"result keyed on the old digest is orphaned; if that is intended, "
        f"re-bless with {UPDATE_ENV}=1 and commit the JSON."
    )


def test_baseline_file_covers_exactly_the_cases() -> None:
    if UPDATING:
        pytest.skip("baseline update mode")
    assert sorted(_load_baselines()) == sorted(CASES)
