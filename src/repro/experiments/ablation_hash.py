"""Ablation — randomized vs deterministic bufferer selection (§3.4).

"We believe the choice between them reflects a trade-off between
network traffic and computation overhead.  Under the deterministic
algorithm, a receiver can find out the set of bufferers for a message
by applying the hash function to the network address of each member in
its region.  This avoids the latency and network traffic incurred
during the search process but has higher computation overhead."

Both schemes hold the same expected number of copies (C).  A late
remote request arrives after the region has gone idle; we measure how
each scheme locates a copy: the randomized scheme searches (network
hops, RTT-scale latency), the deterministic scheme hashes every known
address (CPU) and forwards once.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.base import late_request, run_sweep
from repro.hashing.deterministic import hash_evaluations, reset_hash_counter
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean_defined
from repro.scenario.builder import scenario


def trial_hash_vs_random(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one late-request locate under one selection scheme."""
    built = late_request(
        scenario("ablation-hash", seed=seed)
        .policy("hash" if params["use_hash"] else "two_phase", c=float(params["c"]))
        .protocol(max_search_rounds=300)
        .measure(horizon=float(params["horizon"])),
        int(params["n"]), float(params["request_at"]),
    )
    reset_hash_counter()
    built.run()
    trace = built.simulation.trace
    locate_time = built.search_time
    return {
        "locate time (ms)": float("nan") if locate_time is None else locate_time,
        "locate messages": float(
            trace.count("search_forwarded") + trace.count("lookup_forwarded")
        ),
        "hash evaluations": float(hash_evaluations()),
        "copies held": float(built.simulation.buffering_count(1)),
        "unserved": 0.0 if trace.first("remote_request_served") is not None else 1.0,
    }


def run_hash_vs_random(
    n: int = 100,
    c: float = 6.0,
    seeds: int = 50,
    request_at: float = 200.0,
    horizon: float = 1_500.0,
) -> SeriesTable:
    """Compare the two bufferer-selection schemes head to head."""
    metric_names = [
        "locate time (ms)", "locate messages", "hash evaluations",
        "copies held", "unserved",
    ]
    schemes = (("randomized + search (RRMP)", False),
               ("deterministic hash (NGC'99)", True))
    grid = [
        {"use_hash": use_hash, "n": n, "c": c,
         "request_at": request_at, "horizon": horizon}
        for _label, use_hash in schemes
    ]
    per_point = run_sweep("ablation_hash_vs_random", trial_hash_vs_random, grid, seeds)
    rows: Dict[str, List[float]] = {name: [] for name in metric_names}
    labels = [label for label, _use_hash in schemes]
    for per_seed in per_point:
        for name in metric_names:
            rows[name].append(mean_defined(run[name] for run in per_seed))
    table = SeriesTable(
        title=(
            f"Ablation — randomized vs deterministic bufferer selection; "
            f"n={n}, C={c:g}, request at t={request_at:g} ms, {seeds} seeds"
        ),
        x_label="scheme",
        xs=labels,
    )
    for name in metric_names:
        table.add_series(name, rows[name])
    table.notes.append(
        "hash scheme: ~n hash evaluations and 1 forward; randomized: a few"
        " network hops and no per-member hashing (the §3.4 trade-off)"
    )
    return table
