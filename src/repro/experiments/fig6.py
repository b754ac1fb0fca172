"""Figure 6 — effectiveness of feedback-based short-term buffering.

Paper setup (§4): region of 100 members, RTT 10 ms between any two,
idle threshold T = 40 ms, requests/repairs lossless.  "We simulate the
outcome of an IP multicast by randomly selecting a subset of members to
hold a message initially.  All other members simultaneously detect the
loss and start sending local requests.  We measure how long these
initial members buffer the message."

Expected shape (paper, log-scale y): ~110 ms at k = 1 decreasing
monotonically as the initial multicast reaches more members — more
holders means fewer missing members, a shorter repair epidemic, and
therefore an earlier last-request + T discard point.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.base import run_sweep
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean, stdev
from repro.scenario.library import initial_holders_spec


def trial_holder_buffering(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one Figure 6 run — mean holder buffering + violations."""
    result = initial_holders_spec(
        int(params["n"]), int(params["k"]), seed=seed,
        idle_threshold=float(params["idle_threshold"]), rtt=float(params["rtt"]),
    ).run()
    return {
        "mean_buffering_ms": mean(result.holder_buffering_durations()),
        "violations": result.simulation.violation_count(),
    }


def run_fig6(
    ks: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    n: int = 100,
    seeds: int = 20,
    idle_threshold: float = 40.0,
    rtt: float = 10.0,
) -> SeriesTable:
    """Regenerate Figure 6: average holder buffering time vs k."""
    table = SeriesTable(
        title=(
            f"Figure 6 — avg buffering time of initial holders (ms); "
            f"n={n}, T={idle_threshold:g} ms, RTT={rtt:g} ms, {seeds} seeds"
        ),
        x_label="#holders k",
        xs=list(ks),
    )
    grid = [
        {"n": n, "k": k, "idle_threshold": idle_threshold, "rtt": rtt} for k in ks
    ]
    per_point = run_sweep("fig6", trial_holder_buffering, grid, seeds)
    means, sds, violations = [], [], []
    for runs in per_point:
        per_seed = [run["mean_buffering_ms"] for run in runs]
        means.append(mean(per_seed))
        sds.append(stdev(per_seed))
        violations.append(sum(run["violations"] for run in runs))
    table.add_series("avg buffering time (ms)", means)
    table.add_series("stdev over seeds", sds)
    table.add_series("reliability violations", violations)
    table.notes.append("paper: ~110 ms at k=1 decreasing monotonically (log y-axis)")
    table.notes.append(
        "violations arise because this experiment disables long-term buffering (C=0)"
    )
    return table
