"""Figure 8 — search time vs number of bufferers.

Paper (§4): "We assume that a remote request arrives at a randomly
chosen member in a region with 100 members.  The simulation is repeated
100 times with different random seeds and the average is taken. …
the search time decreases as the number of bufferers increases.  With
10 bufferers, for example, the average search time is 20 ms (i.e.
twice the round trip time)."  Footnote 5: "The search time is 0 if the
request arrives at a bufferer."
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.epidemic import search_time_estimate
from repro.experiments.base import run_sweep
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean
from repro.scenario.library import search_spec


def trial_search(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one §4 bufferer search (shared by Figures 8 and 9)."""
    n, b = int(params["n"]), int(params["b"])
    result = search_spec(n, b, seed=seed).run()
    if result.search_time is None:
        raise RuntimeError(f"search unserved for n={n}, b={b}, seed={seed}")
    forwards = result.simulation.trace.count("search_forwarded")
    return {"time": result.search_time, "forwards": forwards}


def run_fig8(
    bs: Sequence[int] = tuple(range(1, 11)),
    n: int = 100,
    seeds: int = 100,
) -> SeriesTable:
    """Regenerate Figure 8: mean search time vs #bufferers."""
    table = SeriesTable(
        title=f"Figure 8 — search time (ms) vs #bufferers; n={n}, {seeds} seeds",
        x_label="#bufferers",
        xs=list(bs),
    )
    per_point = run_sweep(
        "fig8", trial_search, [{"n": n, "b": b} for b in bs], seeds
    )
    mean_times, direct_hits, mean_forwards = [], [], []
    for runs in per_point:
        mean_times.append(mean([run["time"] for run in runs]))
        direct_hits.append(sum(1 for run in runs if run["time"] == 0.0))
        mean_forwards.append(mean([run["forwards"] for run in runs]))
    table.add_series("mean search time (ms)", mean_times)
    table.add_series("model estimate (ms)",
                     [search_time_estimate(n, b) for b in bs])
    table.add_series("direct hits (time=0)", direct_hits)
    table.add_series("mean search hops", mean_forwards)
    table.notes.append("paper: ~45-50 ms at 1 bufferer down to ~20 ms at 10 bufferers")
    return table
