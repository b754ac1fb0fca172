"""Ablation — the C trade-off (§3.2).

"The choice of C reflects a tradeoff between buffer requirements and
recovery latency.  With large C more members buffer an idle message,
and hence an unlucky receiver … will recover the loss faster.  On the
other hand, small C reduces buffer requirements but may lead to longer
recovery latency.  In particular, it is possible that an idle message
is buffered nowhere."

Protocol-level version of Figures 3/4/8 combined: a region receives a
message, the idle threshold passes with no requests (so the coin flips
happen for real), and *then* a downstream remote request arrives.  Per
C we measure the realized long-term copies (buffer cost), the search
latency the late requester pays, and how often the message had vanished
entirely.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.formulas import prob_no_bufferer_binomial
from repro.experiments.base import late_request, run_sweep
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean, mean_defined
from repro.scenario.builder import scenario


def trial_c_tradeoff(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """Runner trial: one late-request run at a given C."""
    request_at = float(params["request_at"])
    built = late_request(
        scenario("ablation-c", seed=seed)
        .policy(c=float(params["c"]))
        .protocol(max_search_rounds=300)
        .measure(horizon=float(params["horizon"])),
        int(params["n"]), request_at,
    )
    # Let the idle transition settle, then count surviving copies.
    built.simulation.run(until=request_at - 1.0)
    copies = built.simulation.buffering_count(1)
    built.run()
    return {"copies": copies, "search_time": built.search_time}


def run_c_tradeoff(
    cs: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0),
    n: int = 100,
    seeds: int = 30,
    request_at: float = 200.0,
    horizon: float = 1_500.0,
) -> SeriesTable:
    """Sweep C and measure buffer cost vs late-request recovery."""
    table = SeriesTable(
        title=(
            f"Ablation — C trade-off: buffer copies vs late-request latency; "
            f"n={n}, request at t={request_at:g} ms, {seeds} seeds"
        ),
        x_label="C",
        xs=list(cs),
    )
    grid = [
        {"n": n, "c": c, "request_at": request_at, "horizon": horizon} for c in cs
    ]
    per_point = run_sweep("ablation_c_tradeoff", trial_c_tradeoff, grid, seeds)
    mean_copies, mean_search, unserved_counts, analytic_none = [], [], [], []
    for c, runs in zip(cs, per_point):
        mean_copies.append(mean([run["copies"] for run in runs]))
        mean_search.append(mean_defined(run["search_time"] for run in runs))
        unserved_counts.append(sum(1 for run in runs if run["search_time"] is None))
        analytic_none.append(100.0 * prob_no_bufferer_binomial(n, c))
    table.add_series("mean long-term copies (buffer cost)", mean_copies)
    table.add_series("mean late-request search time (ms)", mean_search)
    table.add_series("unserved within horizon", unserved_counts)
    table.add_series("analytic P[no bufferer] %", analytic_none)
    table.notes.append(
        "larger C: more buffered copies, faster late recovery, fewer total losses"
    )
    return table
