"""Golden trace-digest baselines for every registered scenario.

Each registry scenario is run at its default seed and the SHA-256 of
its full trace stream (see :func:`repro.sim.tracing.trace_digest`) is compared
against ``tests/baselines/scenario_trace_digests.json``.  The
simulator is deterministic, so *any* drift in the digest means the
scenario's event stream changed — a new trace kind, a reordered
emission, a behavioural change in the protocol.  That is sometimes
intended (a feature added a trace record); then the baseline must be
updated *deliberately*:

    RRMP_UPDATE_BASELINES=1 PYTHONPATH=src python -m pytest tests/baselines/test_scenario_digests.py

and the refreshed JSON committed alongside the change that explains
it.  An unexplained drift is a silent behaviour change — exactly what
this differential test exists to catch.

``rrmp validate digest <scenario>`` prints one scenario's
digest for manual comparison.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from unittest import mock

import pytest

from repro.scenario.library import get_scenario, scenario_names
from repro.sim.engine import Simulator
from repro.sim.tracing import trace_digest

BASELINE_PATH = Path(__file__).parent / "scenario_trace_digests.json"
UPDATE_ENV = "RRMP_UPDATE_BASELINES"


def _run_digest(name: str) -> dict:
    built = get_scenario(name).build().run()
    records = built.simulation.trace.records
    return {
        "digest": trace_digest(records),
        "records": len(records),
        "events_fired": built.simulation.sim.events_fired,
        "instants_opened": built.simulation.sim.instants_opened,
    }


def _load_baselines() -> dict:
    if not BASELINE_PATH.exists():
        return {}
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_trace_digest_matches_baseline(name: str) -> None:
    fresh = _run_digest(name)
    if os.environ.get(UPDATE_ENV):
        baselines = _load_baselines()
        baselines[name] = fresh
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(dict(sorted(baselines.items())), handle, indent=2)
            handle.write("\n")
        pytest.skip(f"baseline for {name!r} updated ({UPDATE_ENV} set)")
    baselines = _load_baselines()
    assert name in baselines, (
        f"no golden baseline for scenario {name!r}; run with {UPDATE_ENV}=1 "
        "to record one and commit tests/baselines/scenario_trace_digests.json"
    )
    expected = baselines[name]
    assert fresh == expected, (
        f"scenario {name!r} event stream drifted from its golden baseline "
        f"(fresh {fresh} != baseline {expected}).  If the change is "
        f"intentional, re-bless with {UPDATE_ENV}=1 and commit the JSON; "
        "otherwise a protocol behaviour change slipped in."
    )


def test_baseline_file_covers_exactly_the_registry() -> None:
    """Stale baselines (renamed/removed scenarios) must not linger."""
    if os.environ.get(UPDATE_ENV):
        pytest.skip("baseline update mode")
    baselines = _load_baselines()
    assert sorted(baselines) == sorted(scenario_names())


def _forward(callback, *args):
    callback(*args)


def _forwarding(original, callback_at):
    """*original* with a forwarding callback put in front of the real
    one, as a span tracer that wraps the scheduler does."""

    def schedule(*args):
        return original(*args[:callback_at], _forward, *args[callback_at:])

    return schedule


@pytest.mark.parametrize("name", ["initial_holders", "overload_onset_cc"])
def test_a_wrapped_scheduler_fires_the_same_events(name: str) -> None:
    """Deliveries sharing an instant merge into one event whatever
    callback the scheduler was handed, so a traced pass counts the
    events an untraced one does."""
    plain = _run_digest(name)
    with mock.patch.object(Simulator, "at", _forwarding(Simulator.at, 2)), \
            mock.patch.object(Simulator, "at_reserved", _forwarding(Simulator.at_reserved, 3)):
        wrapped = _run_digest(name)
    assert wrapped == plain
