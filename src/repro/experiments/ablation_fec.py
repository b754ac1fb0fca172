"""Ablation — FEC-based repair vs pure pull recovery (and the RMTP tree).

The two-phase buffer scheme minimizes how long members *hold* messages,
but every loss still costs at least one pull round trip — and a
*regional* loss costs a WAN round trip throttled by λ.  NORM-style
erasure coding attacks the other side of that trade-off: the sender
spends ``r/k`` extra data-plane bandwidth on parity so receivers can
fill gaps locally, without a request.

Scenario: a two-region chain.  The sender's region always holds each
message (the sender keeps its own copy); the child region suffers a
*regional loss* with probability ``region_loss`` per message, so every
recovery must either cross the WAN (λ-throttled remote requests, the
paper's §2.2 path) or decode from parity.  Per ``(k, r, region_loss)``
point we run four systems on identical workloads and seeds:

* ``off`` — pure RRMP (the paper's protocol);
* ``proactive`` — parity multicast as each block of *k* fills;
* ``reactive`` — parity multicast on the first request the sender sees;
* ``tree`` — the RMTP-like repair-server baseline (NACK aggregation up
  a server tree; no FEC), for external calibration.

Measured: mean recovery latency, upstream requests crossing the WAN
(remote requests for RRMP, NACKs for the tree), gaps filled by
decoding, and the parity bytes spent — the overhead that buys the
other columns.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.base import run_sweeps, seed_list
from repro.metrics.fec import summarize_fec
from repro.runner import SweepSpec
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean
from repro.net.ipmulticast import RegionCorrelatedOutcome
from repro.net.topology import chain
from repro.scenario.builder import scenario
from repro.tree.rmtp import TreeSimulation

#: RRMP variants compared at every sweep point.
_RRMP_MODES = ("off", "proactive", "reactive")


def _measure_rrmp(
    mode: str,
    k: int,
    r: int,
    region_loss: float,
    region_size: int,
    messages: int,
    interval: float,
    remote_lambda: float,
    seed: int,
    horizon: float,
) -> Dict[str, float]:
    built = (
        scenario("ablation-fec", seed=seed)
        .chain(region_size, region_size)
        .uniform(messages, interval)
        .regional_loss(region_loss=region_loss)
        .fec(mode, block_size=k, parity=r, flush_after=1.0)
        .protocol(
            remote_lambda=remote_lambda, session_interval=50.0,
            max_recovery_time=horizon,
        )
        .measure(horizon=horizon)
        .build()
    )
    simulation = built.simulation
    built.run()
    latencies = simulation.recovery_latencies()
    report = summarize_fec(simulation.trace)
    return {
        "latency": mean(latencies) if latencies else float("nan"),
        "upstream": float(
            simulation.network.stats.sent_by_type.get("RemoteRequest", 0)
        ),
        "fec_recovered": float(report.recovered),
        "parity_bytes": float(report.parity_bytes),
    }


def _measure_tree(
    region_loss: float,
    region_size: int,
    messages: int,
    interval: float,
    seed: int,
    horizon: float,
) -> Dict[str, float]:
    hierarchy = chain([region_size, region_size])
    simulation = TreeSimulation(hierarchy, seed=seed, session_interval=50.0)
    simulation.outcome = RegionCorrelatedOutcome(
        hierarchy, region_loss=region_loss, sender=simulation.sender_node
    )
    for index in range(messages):
        simulation.sim.at(index * interval, simulation.multicast)
    simulation.run(until=horizon)
    latencies = simulation.recovery_latencies()
    return {
        "latency": mean(latencies) if latencies else float("nan"),
        "upstream": float(simulation.network.stats.sent_by_type.get("Nack", 0)),
    }


def trial_fec_rrmp(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one RRMP run at one ``(mode, k, r, loss)`` point."""
    return _measure_rrmp(
        str(params["mode"]), int(params["k"]), int(params["r"]),
        float(params["loss"]), int(params["region_size"]),
        int(params["messages"]), float(params["interval"]),
        float(params["remote_lambda"]), seed, float(params["horizon"]),
    )


def trial_fec_tree(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one RMTP-tree baseline run at one loss rate."""
    return _measure_tree(
        float(params["loss"]), int(params["region_size"]),
        int(params["messages"]), float(params["interval"]),
        seed, float(params["horizon"]),
    )


def run_fec_ablation(
    points: Sequence[Tuple[int, int]] = ((4, 1), (8, 1), (8, 2)),
    loss_rates: Sequence[float] = (0.1, 0.3),
    region_size: int = 25,
    messages: int = 24,
    interval: float = 5.0,
    remote_lambda: float = 4.0,
    seeds: int = 10,
    horizon: float = 4_000.0,
) -> SeriesTable:
    """Sweep ``(k, r, region_loss)`` for each repair system.

    ``points`` are ``(k, r)`` block geometries; ``loss_rates`` are the
    per-message probabilities that the entire child region misses the
    multicast.  All systems see identical workloads per seed.
    """
    xs: List[str] = [
        f"k={k},r={r},p={loss:g}" for k, r in points for loss in loss_rates
    ]
    table = SeriesTable(
        title=(
            f"Ablation — FEC repair vs pull recovery; two regions of "
            f"{region_size}, {messages} messages at {interval:g} ms, "
            f"lambda={remote_lambda:g}, {seeds} seeds"
        ),
        x_label="(k, r, region loss)",
        xs=list(xs),
    )
    columns: Dict[str, List[float]] = {
        "off: mean latency (ms)": [],
        "off: remote requests": [],
        "proactive: mean latency (ms)": [],
        "proactive: remote requests": [],
        "proactive: gaps decoded": [],
        "proactive: parity KB": [],
        "reactive: mean latency (ms)": [],
        "reactive: remote requests": [],
        "tree: mean latency (ms)": [],
        "tree: nacks": [],
    }
    shared = {
        "region_size": region_size, "messages": messages,
        "interval": interval, "horizon": horizon,
    }
    sweep_points = [(k, r, loss) for k, r in points for loss in loss_rates]
    rrmp_grid = [
        {"mode": mode, "k": k, "r": r, "loss": loss,
         "remote_lambda": remote_lambda, **shared}
        for k, r, loss in sweep_points
        for mode in _RRMP_MODES
    ]
    # The tree baseline ignores (k, r); duplicate loss points coalesce
    # into one execution per (loss, seed) inside the runner.
    tree_grid = [{"loss": loss, **shared} for _k, _r, loss in sweep_points]
    seeds_list = seed_list(seeds)
    rrmp_results, tree_results = run_sweeps([
        SweepSpec("ablation_fec", trial_fec_rrmp, rrmp_grid, seeds_list),
        SweepSpec("ablation_fec", trial_fec_tree, tree_grid, seeds_list),
    ])
    for index, (k, r, loss) in enumerate(sweep_points):
        per_mode: Dict[str, List[Dict[str, float]]] = {
            mode: rrmp_results[index * len(_RRMP_MODES) + offset]
            for offset, mode in enumerate(_RRMP_MODES)
        }
        tree_runs: List[Dict[str, float]] = tree_results[index]

        def avg(runs: List[Dict[str, float]], key: str) -> float:
            values = [run[key] for run in runs if run[key] == run[key]]
            return mean(values) if values else float("nan")

        columns["off: mean latency (ms)"].append(avg(per_mode["off"], "latency"))
        columns["off: remote requests"].append(avg(per_mode["off"], "upstream"))
        columns["proactive: mean latency (ms)"].append(
            avg(per_mode["proactive"], "latency")
        )
        columns["proactive: remote requests"].append(
            avg(per_mode["proactive"], "upstream")
        )
        columns["proactive: gaps decoded"].append(
            avg(per_mode["proactive"], "fec_recovered")
        )
        columns["proactive: parity KB"].append(
            avg(per_mode["proactive"], "parity_bytes") / 1024.0
        )
        columns["reactive: mean latency (ms)"].append(
            avg(per_mode["reactive"], "latency")
        )
        columns["reactive: remote requests"].append(
            avg(per_mode["reactive"], "upstream")
        )
        columns["tree: mean latency (ms)"].append(avg(tree_runs, "latency"))
        columns["tree: nacks"].append(avg(tree_runs, "upstream"))
    for name, values in columns.items():
        table.add_series(name, values)
    table.notes.append(
        "proactive FEC trades r/k parity bandwidth for fewer WAN requests "
        "and faster regional recovery; reactive spends parity only on "
        "blocks whose loss a request revealed to the sender — with "
        "randomly-addressed remote requests that signal usually arrives "
        "after pull recovery has already won, so reactive tracks 'off'"
    )
    return table
