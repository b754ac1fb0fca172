"""Ablation — sensitivity to the idle threshold T (§3.1).

"The choice of T depends on the maximum round trip time within a
region and the confidence interval."  Too small a T discards messages
while requests are still in flight (late requesters find nothing —
with C = 0, a reliability violation); too large a T wastes buffer
space.  The paper fixes T = 4 × max-RTT; this sweep shows why that
region of the knob is the right one.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.base import run_sweep
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean, mean_defined
from repro.scenario.library import initial_holders_spec


def trial_idle_threshold(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """Runner trial: one Figure-6-style run at a given idle threshold."""
    result = initial_holders_spec(
        int(params["n"]), int(params["k"]), seed=seed,
        idle_threshold=float(params["threshold"]), rtt=float(params["rtt"]),
    ).run()
    durations = result.holder_buffering_durations()
    stats = result.simulation.network.stats
    return {
        "mean_buffering_ms": mean(durations) if durations else None,
        "violations": result.simulation.violation_count(),
        "local_requests": float(stats.sent_by_type.get("LocalRequest", 0)),
    }


def run_idle_threshold(
    thresholds: Sequence[float] = (10.0, 20.0, 40.0, 80.0, 160.0),
    n: int = 100,
    k: int = 4,
    seeds: int = 20,
    rtt: float = 10.0,
) -> SeriesTable:
    """Sweep T for the Figure 6 workload (k initial holders)."""
    table = SeriesTable(
        title=(
            f"Ablation — idle threshold sweep; n={n}, k={k}, RTT={rtt:g} ms, "
            f"{seeds} seeds (paper value: T = 40 ms = 4x RTT)"
        ),
        x_label="idle threshold T (ms)",
        xs=list(thresholds),
    )
    grid = [
        {"n": n, "k": k, "threshold": threshold, "rtt": rtt}
        for threshold in thresholds
    ]
    per_point = run_sweep("ablation_idle_threshold", trial_idle_threshold, grid, seeds)
    buffering, violations, requests = [], [], []
    for runs in per_point:
        buffering.append(mean_defined(run["mean_buffering_ms"] for run in runs))
        violations.append(sum(run["violations"] for run in runs))
        requests.append(mean([run["local_requests"] for run in runs]))
    table.add_series("mean holder buffering time (ms)", buffering)
    table.add_series("reliability violations", violations)
    table.add_series("mean local requests per run", requests)
    table.notes.append(
        "small T discards while requests are in flight -> violations and extra"
        " request traffic; large T only adds buffering time"
    )
    return table
