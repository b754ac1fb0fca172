"""Ablation — the λ trade-off in remote recovery (§2.2).

λ is the expected number of remote requests a region sends per round
when the entire region missed a message.  Small λ risks rounds in which
*nobody* asks upstream (probability ≈ e^{-λ}), stretching regional
recovery; large λ duplicates remote requests — and every duplicate
repair crossing the WAN link costs bandwidth.

Scenario: a two-region chain; the parent region holds the message, the
entire child region misses it at t = 0 (a *regional loss*).  Per λ we
measure remote requests actually sent, remote repairs crossing the
inter-region link, and the time until the whole child region has
recovered (remote repair + regional re-multicast).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.base import run_sweep
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean, mean_defined
from repro.protocol.messages import DataMessage
from repro.scenario.builder import scenario


def trial_lambda(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one full-region-loss recovery at a given λ."""
    region_size = int(params["region_size"])
    horizon = float(params["horizon"])
    built = (
        scenario("ablation-lambda", seed=seed)
        .chain(region_size, region_size)
        .latency(inter_one_way=float(params["inter_one_way"]))
        .protocol(remote_lambda=float(params["lam"]), session_interval=None,
                  max_recovery_time=horizon)
        .measure(horizon=horizon)
        .build()
    )
    simulation = built.simulation
    hierarchy = simulation.hierarchy
    data = DataMessage(seq=1, sender=simulation.sender.node_id)
    for node in hierarchy.regions[0].members:
        simulation.members[node].inject_receive(data)
    for node in hierarchy.regions[1].members:
        simulation.members[node].inject_loss_detection(1)
    built.run()
    stats = simulation.network.stats
    child = hierarchy.regions[1].members
    recovered = [
        record.time
        for record in simulation.trace.of_kind("member_received")
        if record["node"] in set(child)
    ]
    latencies = simulation.recovery_latencies()
    return {
        "remote_requests": stats.sent_by_type.get("RemoteRequest", 0),
        # Remote repairs = repairs unicast across the link (scope
        # remote/relay) observed as served remote requests.
        "remote_repairs": simulation.trace.count("remote_request_served"),
        "full_recovery_ms": (
            max(recovered) if len(recovered) == len(child) else float("nan")
        ),
        "mean_latency_ms": mean(latencies) if latencies else float("nan"),
    }


def run_lambda_sweep(
    lams: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    region_size: int = 50,
    seeds: int = 30,
    inter_one_way: float = 40.0,
    horizon: float = 3_000.0,
) -> SeriesTable:
    """Sweep λ for a full-region loss and measure the §2.2 trade-off."""
    table = SeriesTable(
        title=(
            f"Ablation — λ sweep (regional loss recovery); two regions of "
            f"{region_size}, inter one-way {inter_one_way:g} ms, {seeds} seeds"
        ),
        x_label="lambda",
        xs=list(lams),
    )
    grid = [
        {"lam": lam, "region_size": region_size,
         "inter_one_way": inter_one_way, "horizon": horizon}
        for lam in lams
    ]
    per_point = run_sweep("ablation_lambda", trial_lambda, grid, seeds)
    remote_requests, remote_repairs, full_recovery, mean_latency = [], [], [], []
    for runs in per_point:
        remote_requests.append(mean([run["remote_requests"] for run in runs]))
        remote_repairs.append(mean([run["remote_repairs"] for run in runs]))
        full_recovery.append(mean_defined(run["full_recovery_ms"] for run in runs))
        mean_latency.append(mean_defined(run["mean_latency_ms"] for run in runs))
    table.add_series("mean remote requests sent", remote_requests)
    table.add_series("mean remote repairs (WAN crossings)", remote_repairs)
    table.add_series("mean time to full region recovery (ms)", full_recovery)
    table.add_series("mean per-member recovery latency (ms)", mean_latency)
    table.notes.append(
        "larger lambda: more duplicate WAN traffic, slightly faster regional recovery"
    )
    return table
