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

from repro.experiments.base import run_sweeps, run_tree_baseline, seed_list
from repro.metrics.fec import summarize_fec
from repro.runner.spec import SweepSpec
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean_defined
from repro.scenario.builder import ScenarioBuilder, scenario

#: RRMP variants compared at every sweep point.
_RRMP_MODES = ("off", "proactive", "reactive")

#: Table columns in order: (name, system, trial key, divisor of the
#: seed mean).
_COLUMNS = (
    ("off: mean latency (ms)", "off", "latency", 1.0),
    ("off: remote requests", "off", "upstream", 1.0),
    ("proactive: mean latency (ms)", "proactive", "latency", 1.0),
    ("proactive: remote requests", "proactive", "upstream", 1.0),
    ("proactive: gaps decoded", "proactive", "fec_recovered", 1.0),
    ("proactive: parity KB", "proactive", "parity_bytes", 1024.0),
    ("reactive: mean latency (ms)", "reactive", "latency", 1.0),
    ("reactive: remote requests", "reactive", "upstream", 1.0),
    ("tree: mean latency (ms)", "tree", "latency", 1.0),
    ("tree: nacks", "tree", "upstream", 1.0),
)


def _workload(params: Dict[str, object], seed: int) -> ScenarioBuilder:
    """The two-region stream and regional loss every system runs."""
    size = int(params["region_size"])
    horizon = float(params["horizon"])
    return (
        scenario("ablation-fec", seed=seed)
        .chain(size, size)
        .uniform(int(params["messages"]), float(params["interval"]))
        .regional_loss(region_loss=float(params["loss"]))
        .protocol(max_recovery_time=horizon)
        .measure(horizon=horizon)
    )


def trial_fec_rrmp(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one RRMP run at one ``(mode, k, r, loss)`` point."""
    built = (
        _workload(params, seed)
        .fec(str(params["mode"]), block_size=int(params["k"]), parity=int(params["r"]))
        .protocol(remote_lambda=float(params["remote_lambda"]))
        .run()
    )
    report = summarize_fec(built.simulation.trace)
    return {
        "latency": mean_defined(built.simulation.recovery_latencies()),
        "upstream": float(
            built.simulation.network.stats.sent_by_type.get("RemoteRequest", 0)
        ),
        "fec_recovered": float(report.recovered),
        "parity_bytes": float(report.parity_bytes),
    }


def trial_fec_tree(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: the RMTP-tree baseline on the same workload."""
    built = run_tree_baseline(_workload(params, seed).spec())
    return {
        "latency": mean_defined(built.simulation.recovery_latencies()),
        "upstream": float(built.simulation.network.stats.sent_by_type.get("Nack", 0)),
    }


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
    per_system: List[Dict[str, List[Dict[str, float]]]] = [
        {"tree": tree_results[index],
         **{mode: rrmp_results[index * len(_RRMP_MODES) + offset]
            for offset, mode in enumerate(_RRMP_MODES)}}
        for index in range(len(sweep_points))
    ]
    for name, system, key, divisor in _COLUMNS:
        table.add_series(name, [
            mean_defined(run[key] for run in runs[system]) / divisor
            for runs in per_system
        ])
    table.notes.append(
        "proactive FEC trades r/k parity bandwidth for fewer WAN requests "
        "and faster regional recovery; reactive spends parity only on "
        "blocks whose loss a request revealed to the sender — with "
        "randomly-addressed remote requests that signal usually arrives "
        "after pull recovery has already won, so reactive tracks 'off'"
    )
    return table
