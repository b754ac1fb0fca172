"""Ablation — buffer handoff under churn (§3.2).

"When a receiver voluntarily leaves the group, it transfers each
message in its long-term buffer to a randomly selected receiver in the
region.  This avoids the situation where all long-term bufferers decide
to leave the group, making a message loss unrecoverable."

Scenario: a region receives a message and goes idle, leaving ≈C
long-term copies.  Every member that holds a copy then departs —
gracefully (handoff) in one arm, by crashing (no handoff) in the other.
A late downstream request then probes whether the message survived.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.base import late_request, run_sweep
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean
from repro.scenario.builder import scenario


def trial_churn(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one departure-mode run (graceful leave vs crash)."""
    graceful = bool(params["graceful"])
    built = late_request(
        scenario("ablation-churn", seed=seed)
        .policy(c=float(params["c"]))
        .protocol(max_search_rounds=200)
        .measure(horizon=float(params["horizon"])),
        int(params["n"]), float(params["request_at"]),
    )
    simulation = built.simulation
    region_nodes = list(simulation.hierarchy.regions[0].members)

    def depart_bufferers() -> None:
        # Whoever ended up long-term-buffering the message leaves (or
        # crashes) now, staggered 10 ms apart so graceful handoffs can
        # land on members that might themselves be about to leave.
        holders = [
            node for node in region_nodes
            if simulation.members[node].alive and simulation.members[node].is_buffering(1)
        ]
        for index, node in enumerate(holders):
            member = simulation.members[node]
            action = member.leave if graceful else member.crash
            simulation.sim.after(index * 10.0, lambda act=action: act())

    simulation.sim.at(float(params["depart_at"]), depart_bufferers)
    built.run()
    served = simulation.trace.first("remote_request_served")
    return {
        "message survived (%)": 100.0 if served is not None else 0.0,
        "handoff transfers": float(simulation.trace.count("handoff_sent")),
        "copies after churn": float(simulation.buffering_count(1)),
    }


def run_churn_handoff(
    n: int = 50,
    c: float = 4.0,
    seeds: int = 30,
    depart_at: float = 100.0,
    request_at: float = 600.0,
    horizon: float = 2_000.0,
) -> SeriesTable:
    """Graceful leave (handoff) vs crash: does the message survive?"""
    metric_names = ["message survived (%)", "handoff transfers", "copies after churn"]
    modes = (("graceful leave + handoff", True), ("crash (no handoff)", False))
    grid = [
        {"graceful": graceful, "n": n, "c": c, "depart_at": depart_at,
         "request_at": request_at, "horizon": horizon}
        for _label, graceful in modes
    ]
    per_point = run_sweep("ablation_churn_handoff", trial_churn, grid, seeds)
    rows: Dict[str, List[float]] = {name: [] for name in metric_names}
    labels = [label for label, _graceful in modes]
    for per_seed in per_point:
        for name in metric_names:
            rows[name].append(mean([run[name] for run in per_seed]))
    table = SeriesTable(
        title=(
            f"Ablation — handoff under churn; n={n}, C={c:g}, all bufferers "
            f"depart at t={depart_at:g} ms, late request at t={request_at:g} ms, "
            f"{seeds} seeds"
        ),
        x_label="departure mode",
        xs=labels,
    )
    for name in metric_names:
        table.add_series(name, rows[name])
    table.notes.append(
        "handoff keeps the copy count intact across departures; crashes lose"
        " every copy and the late request goes unserved"
    )
    return table
