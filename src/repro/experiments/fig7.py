"""Figure 7 — #received vs #buffered as error recovery proceeds.

Paper (§4, zooming into the k = 1 point of Figure 6): "when only a
small percentage of members have received the message, almost all of
them buffer the message.  The number of short-term bufferers decline
rapidly when an overwhelming majority of members (96% in this case)
have received the message."

We rebuild both step curves from the trace (``member_received`` for the
received count; ``buffer_add`` / ``buffer_discard`` for the buffered
count) and emit them on the paper's 5 ms-ish sampling grid.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.base import run_sweep
from repro.metrics.report import SeriesTable
from repro.metrics.timeseries import StepSeries
from repro.scenario.library import initial_holders_spec


def trial_coverage_curves(params: Dict[str, object], seed: int) -> Dict[str, List[float]]:
    """Runner trial: one run's #received / #buffered step curves, sampled."""
    result = initial_holders_spec(int(params["n"]), int(params["k"]), seed=seed).run()
    trace = result.simulation.trace
    received = StepSeries()
    buffered = StepSeries()
    received_count = 0
    buffered_count = 0
    for record in trace.records:
        if record.kind == "member_received":
            received_count += 1
            received.record(record.time, received_count)
        elif record.kind == "buffer_add":
            buffered_count += 1
            buffered.record(record.time, buffered_count)
        elif record.kind == "buffer_discard":
            buffered_count -= 1
            buffered.record(record.time, buffered_count)
    xs = []
    received_samples = []
    buffered_samples = []
    t = 0.0
    while t <= float(params["horizon"]) + 1e-9:
        xs.append(t)
        received_samples.append(received.value_at(t))
        buffered_samples.append(buffered.value_at(t))
        t += float(params["sample_dt"])
    return {"xs": xs, "received": received_samples, "buffered": buffered_samples}


def run_fig7(
    n: int = 100,
    k: int = 1,
    seed: int = 0,
    sample_dt: float = 5.0,
    horizon: float = 160.0,
) -> SeriesTable:
    """Regenerate Figure 7: the two curves for one representative run."""
    grid = [{"n": n, "k": k, "sample_dt": sample_dt, "horizon": horizon}]
    (per_seed,) = run_sweep("fig7", trial_coverage_curves, grid, [seed])
    curves = per_seed[0]
    xs = curves["xs"]
    received_samples = curves["received"]
    buffered_samples = curves["buffered"]
    table = SeriesTable(
        title=(
            f"Figure 7 — members received vs members buffering; "
            f"n={n}, k={k}, seed={seed}"
        ),
        x_label="time (ms)",
        xs=xs,
    )
    table.add_series("#received", received_samples)
    table.add_series("#buffered", buffered_samples)
    table.notes.append(
        "paper: #buffered tracks #received until ~96% coverage, then drops rapidly"
    )
    return table
