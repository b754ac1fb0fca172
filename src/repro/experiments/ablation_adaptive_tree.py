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
from typing import Dict, List, Sequence

from repro.experiments.base import run_sweeps, seed_list
from repro.metrics.makespan import MakespanTracker
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean
from repro.runner import SweepSpec
from repro.scenario.materialize import build_hierarchy, network_models
from repro.scenario.registry import get_scenario
from repro.scenario.spec import AdaptSpec, ChurnSpec, ScenarioSpec
from repro.tree.rmtp import TreeSimulation

#: Repair modes compared at every scenario point.
_MODES = ("tree", "static", "adaptive")

#: Registry scenarios the ablation stresses.
_SCENARIOS = ("heterogeneous_regions", "wan_burst_loss", "flash_crowd")


def _base_spec(scenario_name: str, seed: int) -> ScenarioSpec:
    spec = get_scenario(scenario_name)
    return replace(spec, seed=seed)


def _run_tree(spec: ScenarioSpec) -> Dict[str, float]:
    """The static-tree baseline on the spec's topology and loss.

    Churn is dropped (TreeSimulation has no member lifecycle) — the
    table notes it for the churn scenario.
    """
    hierarchy = build_hierarchy(spec.topology)
    models = network_models(spec, hierarchy)
    tree = TreeSimulation(
        hierarchy,
        seed=spec.seed,
        latency=models.latency,
        loss=models.loss,
        outcome=models.outcome,
        timer_factor=spec.policy.timer_factor,
    )
    makespan = MakespanTracker().attach(tree.trace)
    traffic = spec.traffic
    if traffic.kind != "uniform":  # pragma: no cover - registry guard
        raise ValueError(
            f"tree mode only supports uniform traffic, got {traffic.kind!r}"
        )
    for index in range(traffic.count):
        tree.sim.at(traffic.start + index * traffic.interval,
                    lambda: tree.multicast())
    horizon = spec.measurement.horizon or spec.measurement.duration
    tree.run(until=horizon)
    tree.stop_session()
    latencies = tree.recovery_latencies()
    return {
        "makespan": makespan.session_makespan(),
        "makespan_p90": makespan.summary()["makespan_seq_p90_ms"],
        "mean_recovery": mean(latencies) if latencies else 0.0,
        "violations": 0.0,
        "reparents": 0.0,
        "updates": 0.0,
    }


def _run_rrmp(spec: ScenarioSpec, adaptive: bool,
              update_interval: float, hysteresis: float,
              max_reparents: int) -> Dict[str, float]:
    spec = replace(spec, measurement=replace(spec.measurement, oracle=True))
    if adaptive:
        spec = replace(spec, adapt=AdaptSpec(
            mode="passive",
            update_interval=update_interval,
            hysteresis=hysteresis,
            max_reparents=max_reparents,
        ))
    built = spec.build().run()
    summary = built.summary()
    return {
        "makespan": float(summary.get("makespan_session_ms", 0.0)),
        "makespan_p90": float(summary.get("makespan_seq_p90_ms", 0.0)),
        "mean_recovery": float(summary["mean_recovery_latency_ms"]),
        "violations": float(summary.get("invariant_violations", 0.0)),
        "reparents": float(summary.get("adapt_reparents", 0.0)),
        "updates": float(summary.get("adapt_updates", 0.0)),
    }


def trial_adaptive_tree(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one run at one ``(scenario, mode)`` point."""
    mode = str(params["mode"])
    spec = _base_spec(str(params["scenario"]), seed)
    if mode == "tree":
        return _run_tree(replace(spec, churn=ChurnSpec()))
    return _run_rrmp(
        spec,
        adaptive=(mode == "adaptive"),
        update_interval=float(params["update_interval"]),
        hysteresis=float(params["hysteresis"]),
        max_reparents=int(params["max_reparents"]),
    )


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
