"""Ablation — static vs adaptive repair hierarchies, makespan objective.

The paper fixes the region hierarchy for the whole session; the
makespan literature (PAPERS.md, "Reducing the Makespan in Hierarchical
Reliable Multicast Tree") re-optimizes it online so repair traffic
routes around degraded links.  This ablation runs three repair modes
over the registry's stress scenarios and reports the makespan — time
until the *last* receiver completes — alongside mean recovery latency
and the maintenance overhead the adaptation costs:

* ``tree``     — the RMTP-like static repair-server baseline
  (:mod:`repro.tree.rmtp`): one server per region, fixed parents;
* ``static``   — RRMP with the hierarchy frozen at construction
  (today's default, ``AdaptSpec`` off);
* ``adaptive`` — RRMP plus the :mod:`repro.adapt` subsystem: passive
  link-state estimation and hysteresis-thresholded re-parenting.

Scenarios: ``heterogeneous_regions`` (unequal chain, regional losses —
the slow tail the optimizer can route around), ``wan_burst_loss``
(two-region chain; no alternative parent exists, so adaptive must
match static, a no-regression guard) and ``flash_crowd`` (churn; the
tree baseline runs its traffic without churn, noted on the table,
because :class:`~repro.tree.rmtp.TreeSimulation` has no member
lifecycle).  Adaptive runs execute under the invariant oracle, so the
``adaptive-topology`` invariant audits every re-parent.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence

from repro.experiments.base import run_sweeps, run_tree_baseline, seed_list
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean
from repro.runner.spec import SweepSpec
from repro.scenario.library import get_scenario
from repro.scenario.spec import AdaptSpec

#: Repair modes compared at every scenario point.
_MODES = ("tree", "static", "adaptive")

#: Registry scenarios the ablation stresses.
_SCENARIOS = ("heterogeneous_regions", "wan_burst_loss", "flash_crowd")


def trial_adaptive_tree(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one run at one ``(scenario, mode)`` point.  Every
    mode runs the registry spec; the RRMP modes run it under the oracle."""
    mode = str(params["mode"])
    spec = get_scenario(str(params["scenario"]))
    spec = replace(spec, seed=seed, measurement=replace(spec.measurement, oracle=True))
    if mode == "tree":
        built = run_tree_baseline(spec)
    else:
        if mode == "adaptive":
            spec = replace(spec, adapt=AdaptSpec(
                mode="passive",
                update_interval=float(params["update_interval"]),
                hysteresis=float(params["hysteresis"]),
                max_reparents=int(params["max_reparents"]),
            ))
        built = spec.run()
    summary = built.summary()
    return {
        "makespan": float(summary.get("makespan_session_ms", 0.0)),
        "mean_recovery": float(summary["mean_recovery_latency_ms"]),
        "violations": float(summary.get("invariant_violations", 0.0)),
        "reparents": float(summary.get("adapt_reparents", 0.0)),
    }


def run_adaptive_tree_ablation(
    scenarios: Sequence[str] = _SCENARIOS,
    seeds: int = 5,
    update_interval: float = 150.0,
    hysteresis: float = 0.1,
    max_reparents: int = 8,
) -> SeriesTable:
    """Compare repair modes per scenario; makespan is the headline."""
    table = SeriesTable(
        title=(
            f"Ablation — static vs adaptive repair hierarchy; "
            f"{seeds} seeds, re-optimize every {update_interval:g} ms, "
            f"hysteresis {hysteresis:g}, budget {max_reparents} re-parents"
        ),
        x_label="scenario",
        xs=list(scenarios),
    )
    grid = [
        {"scenario": scenario, "mode": mode,
         "update_interval": update_interval, "hysteresis": hysteresis,
         "max_reparents": max_reparents}
        for scenario in scenarios
        for mode in _MODES
    ]
    (results,) = run_sweeps([
        SweepSpec("ablation_adaptive_tree", trial_adaptive_tree, grid,
                  seed_list(seeds)),
    ])
    for offset, mode in enumerate(_MODES):
        per_scenario = [
            results[index * len(_MODES) + offset]
            for index in range(len(scenarios))
        ]
        table.add_series(f"{mode}: session makespan (ms)", [
            mean([run["makespan"] for run in runs]) for runs in per_scenario
        ])
        table.add_series(f"{mode}: mean recovery latency (ms)", [
            mean([run["mean_recovery"] for run in runs]) for runs in per_scenario
        ])
        if mode == "adaptive":
            table.add_series("adaptive: re-parents", [
                mean([run["reparents"] for run in runs]) for runs in per_scenario
            ])
            table.add_series("adaptive: invariant violations", [
                sum(run["violations"] for run in runs) for runs in per_scenario
            ])
    table.notes.append(
        "makespan = time from the first delivery to the last delivery in "
        "the session; the adaptive mode re-parents slow regions onto "
        "cheaper (ETX x RTT) parents, which shortens the tail on "
        "heterogeneous_regions; wan_burst_loss has no alternative parent, "
        "so adaptive matching static there is the expected no-op"
    )
    table.notes.append(
        "tree mode runs flash_crowd's traffic without its churn "
        "(the RMTP baseline has no member lifecycle)"
    )
    return table
