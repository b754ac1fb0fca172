"""Golden trace-digest baselines for the flat engine.

The flat engine's other checks compare it with the oracle and with
itself at other shard counts; neither notices a change that moves every
shard count together (a reordered random draw, a missed idle sweep).
Each case below is run serially with the digest on and its commutative
``trace_digest``, ``events_fired`` and ``recoveries`` are compared with
``tests/baselines/flat_trace_digests.json``.  The re-bless rule is the
one of ``test_scenario_digests.py``:

    RRMP_UPDATE_BASELINES=1 PYTHONPATH=src python -m pytest tests/baselines/test_flat_digests.py

``scale_100k`` (half a minute) is in the file but skipped here unless
re-blessing; CI's ``nightly-scale-bench`` job compares its full-oracle
run with that entry.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.scale.engine import _TIME_EPS, FlatShard, run_flat
from repro.scenario.library import scale_spec
from repro.scenario.registry import get_scenario

BASELINE_PATH = Path(__file__).parent / "flat_trace_digests.json"
UPDATE_ENV = "RRMP_UPDATE_BASELINES"
UPDATING = bool(os.environ.get(UPDATE_ENV))

CASES = {
    "small": lambda: scale_spec(
        regions=4, members_per_region=6, messages=4, loss_rate=0.3, seed=1),
    "remote_heavy": lambda: scale_spec(
        regions=6, members_per_region=3, messages=3, loss_rate=0.6, seed=2),
    "mixed": lambda: scale_spec(
        regions=5, members_per_region=4, messages=4, loss_rate=0.4, seed=3),
    "long_stream": lambda: scale_spec(
        regions=8, members_per_region=50, messages=60, loss_rate=0.2, seed=5,
        horizon=4_500),
    # Sends 10 ms apart against deadlines at +40/+70/+75 ms: the one case
    # whose sweeps find two or more columns due at the same instant.
    "coincident_deadlines": lambda: scale_spec(
        regions=4, members_per_region=20, messages=12, send_interval=10,
        loss_rate=0.2, seed=3, horizon=3_000),
    "scale_10k": lambda: get_scenario("scale_10k"),
    "scale_100k": lambda: get_scenario("scale_100k"),
}
NIGHTLY_ONLY = {"scale_100k"}


def _run_digest(name: str) -> dict:
    result = run_flat(CASES[name]())
    return {
        "trace_digest": result.trace_digest,
        "events_fired": result.events_fired,
        "recoveries": result.recoveries,
    }


def _load_baselines() -> dict:
    if not BASELINE_PATH.exists():
        return {}
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.skipif(
        name in NIGHTLY_ONLY and not UPDATING,
        reason="nightly-scale-bench checks this entry"))
    for name in CASES
])
def test_flat_trace_digest_matches_baseline(name: str) -> None:
    fresh = _run_digest(name)
    if UPDATING:
        baselines = _load_baselines()
        baselines[name] = fresh
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(dict(sorted(baselines.items())), handle, indent=2)
            handle.write("\n")
        pytest.skip(f"baseline for {name!r} updated ({UPDATE_ENV} set)")
    expected = _load_baselines().get(name)
    assert fresh == expected, (
        f"flat case {name!r} drifted from its golden baseline (fresh {fresh} "
        f"!= baseline {expected}).  A flat digest moves when a random draw, "
        f"a transition or a trace record does; if that is intended, re-bless "
        f"with {UPDATE_ENV}=1 and commit the JSON."
    )


def test_coincident_case_has_sweeps_with_several_due_columns(monkeypatch) -> None:
    """Coins go to due copies member-major *across* columns, and only
    ``coincident_deadlines`` has a sweep with more than one due column.
    If a later change of defaults turned it into a one-column case its
    digest would still be reproducible and pin nothing."""
    due_columns = []

    class CountingShard(FlatShard):
        def _sweep(self, region_id):
            horizon = self.sim.now + _TIME_EPS
            due_columns.append(sum(
                when <= horizon for when in self._live[region_id].values()))
            super()._sweep(region_id)

    monkeypatch.setattr("repro.scale.engine.FlatShard", CountingShard)
    run_flat(CASES["coincident_deadlines"](), digest=False)
    several = sum(count > 1 for count in due_columns)
    assert several > 0, f"0 of {len(due_columns)} sweeps (39 of 99 when blessed)"


def test_baseline_file_covers_exactly_the_cases() -> None:
    if UPDATING:
        pytest.skip("baseline update mode")
    assert sorted(_load_baselines()) == sorted(CASES)
