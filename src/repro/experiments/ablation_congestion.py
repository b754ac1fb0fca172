"""Ablation — NACK-driven congestion control on a capacity-bound link.

The paper's buffer-optimization results assume the sender's offered
load is a given; this ablation asks what happens when it is not.  A
single region shares a :class:`~repro.net.loss.BottleneckLoss` link —
the one loss model whose drop rate answers to offered load, so pushing
harder drops more data *and more repairs*: retries pile up, recoveries
exhaust ``max_recovery_time``, and delivery collapses.  An adaptive
sender (:mod:`repro.cc`) closes the loop instead, throttling to the
worst receiver's loss report.

Per offered-load multiple of the link capacity we run the same
workload and seeds under three controllers:

* ``none``  — the open-loop sender (today's default, the baseline);
* ``tfmcc`` — equation-based worst-receiver tracking (TFMCC/NORM);
* ``aimd``  — additive-increase / multiplicative-decrease.

Measured per point: goodput (messages fully delivered per second of
sim time), delivered fraction, reliability violations at the horizon,
and peak single-node buffer occupancy — the §3.2 pressure the quota
bounds.  A final two-flow duel per controller
(:func:`~repro.cc.fairness.run_fairness_duel`) reports Jain's index
``J = (sum x)^2 / (n * sum x^2)`` and bottleneck utilization: an
adaptive scheme must not just survive overload but share capacity.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cc.fairness import run_fairness_duel
from repro.experiments.base import run_sweeps, seed_list
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean
from repro.runner.spec import SweepSpec
from repro.scenario.builder import scenario

#: Controllers compared at every sweep point.
_CONTROLLERS = ("none", "tfmcc", "aimd")


def trial_cc(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: ``load`` × the sustainable rate under one controller."""
    controller = str(params["controller"])
    n = int(params["n"])
    sustainable = float(params["capacity_per_member"])  # capacity / n, in msgs/s
    rate = float(params["load"]) * sustainable
    horizon = float(params["horizon"])
    builder = (
        scenario("ablation-cc", seed=seed)
        .single_region(n)
        .uniform(int(params["messages"]), 1000.0 / rate, start=1.0)
        .bottleneck(
            capacity=sustainable * n,
            window=250.0,
            receiver_loss=float(params["base_loss"]),
        )
        .protocol(max_recovery_time=1_500.0)
        .measure(horizon=horizon, probe_period=100.0)
    )
    if controller != "none":
        builder = builder.congestion(
            controller, target_loss=0.02, min_rate=sustainable / 10.0,
            max_rate=rate, feedback_interval=100.0,
        )
    summary = builder.run().summary()
    delivered = float(summary["delivered_fraction"])
    return {
        # A paced sender may leave offered messages unsent at the
        # horizon; the delivered fraction covers only those it sent.
        "goodput": delivered * summary["messages"] * 1000.0 / horizon,
        "delivered": delivered,
        "violations": float(summary["reliability_violations"]),
        "peak_occupancy": float(summary["peak_node_occupancy"]),
    }


def run_congestion_ablation(
    loads: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    n: int = 30,
    capacity_per_member: float = 100.0,
    messages: int = 300,
    base_loss: float = 0.02,
    seeds: int = 5,
    horizon: float = 12_000.0,
) -> SeriesTable:
    """Sweep offered load (× sustainable rate) for each controller.

    ``capacity_per_member`` is the bottleneck budget per receiver in
    msgs/s, so the sustainable multicast rate is that number and the
    link capacity is ``capacity_per_member * n`` packet deliveries/s.
    All controllers see identical workloads per seed.
    """
    xs = [f"{load:g}x" for load in loads]
    table = SeriesTable(
        title=(
            f"Ablation — congestion control on a bottleneck link; one "
            f"region of {n}, sustainable rate {capacity_per_member:g} "
            f"msgs/s, {messages} messages, {seeds} seeds"
        ),
        x_label="offered load (x sustainable rate)",
        xs=xs,
    )
    grid = [
        {"controller": controller, "load": load, "n": n,
         "capacity_per_member": capacity_per_member, "messages": messages,
         "base_loss": base_loss, "horizon": horizon}
        for load in loads
        for controller in _CONTROLLERS
    ]
    (results,) = run_sweeps([
        SweepSpec("ablation_congestion", trial_cc, grid, seed_list(seeds)),
    ])
    columns: Dict[str, List[float]] = {}
    for offset, controller in enumerate(_CONTROLLERS):
        per_load = [
            results[index * len(_CONTROLLERS) + offset]
            for index in range(len(loads))
        ]
        columns[f"{controller}: goodput (msgs/s)"] = [
            mean([run["goodput"] for run in runs]) for runs in per_load
        ]
        columns[f"{controller}: delivered fraction"] = [
            mean([run["delivered"] for run in runs]) for runs in per_load
        ]
        columns[f"{controller}: peak occupancy"] = [
            mean([run["peak_occupancy"] for run in runs]) for runs in per_load
        ]
    for name, values in columns.items():
        table.add_series(name, values)
    for controller in ("tfmcc", "aimd"):
        duel = run_fairness_duel(controller, capacity=capacity_per_member * 2)
        table.notes.append(
            f"fairness duel ({controller}): two flows on one bottleneck, "
            f"Jain index {duel.jain:.3f}, utilization {duel.utilization:.2f} "
            f"(J=1 is a perfectly fair split)"
        )
    table.notes.append(
        "below capacity (0.5x/1x) all senders deliver everything; past it "
        "the open-loop sender collapses — dropped repairs starve recovery "
        "until give-ups — while the adaptive senders throttle to the "
        "bottleneck and keep the delivered fraction near 1"
    )
    return table
