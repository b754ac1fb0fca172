"""Ablation — buffering policies compared on one WAN workload.

Puts the paper's positioning claims (§1, §5, conclusion) on one table:

* **two-phase** (the contribution): low occupancy, spread evenly, tiny
  control overhead, rare reliability violations;
* **fixed-time** (Bimodal Multicast): occupancy scales with the hold
  time, insensitive to which messages are still needed;
* **stability-gossip** (Guo–Rhee-style): discards only what is globally
  stable — safe, but continuous digest traffic and occupancy gated by
  the slowest member;
* **hash C=6** (the authors' NGC'99 scheme): same expected copy count
  as two-phase, but no short-term phase to serve fresh local requests;
* **never-discard**: the conservative §1 strawman;
* **repair-server** (RMTP-like tree): one member per region holds the
  whole session — the per-node hotspot column is the point.

Workload: three chained regions, a uniform stream of messages, 5%
independent receiver loss at IP-multicast time, session messages on.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.base import run_sweep, run_tree_baseline
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean
from repro.scenario.builder import scenario


#: The compared schemes, in table order: label -> the PolicySpec kind
#: and knobs the scenario builder applies (or "tree" for the RMTP
#: baseline, which runs the same spec as a repair-server tree).  Keeping
#: the mapping here — not in trial params — keeps trial specs
#: picklable: the trial function resolves its policy by label inside
#: the worker process.
_POLICIES: "List[tuple]" = [
    ("two-phase C=6 T=40", ("two_phase", {})),
    ("fixed-time 200ms", ("fixed_time", {"hold_time": 200.0})),
    ("fixed-time 1000ms", ("fixed_time", {"hold_time": 1000.0})),
    ("stability-gossip", ("stability", {})),
    ("hash C=6", ("hash", {"c": 6.0})),
    ("never-discard", ("never_discard", {})),
    ("repair-server tree", ("tree", {})),
]

_POLICY_BY_LABEL: Dict[str, tuple] = {label: entry for label, entry in _POLICIES}


def trial_policy(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one streamed-WAN run under one buffering policy."""
    kind, knobs = _POLICY_BY_LABEL[str(params["policy"])]
    size = int(params["region_size"])
    messages = int(params["messages"])
    horizon = float(params["horizon"])
    builder = (
        scenario("ablation-policies", seed=seed)
        .chain(size, size, size)
        .uniform(messages, float(params["interval"]))
        .loss(p=float(params["loss"]))
        .protocol(max_recovery_time=horizon)
        .measure(horizon=horizon, probe_period=10.0)
    )
    if kind == "tree":
        built = run_tree_baseline(builder.spec())
    else:
        # long_term_ttl enables §3.2's eventual discard so the two-phase
        # row shows the full lifecycle instead of holding C copies forever.
        built = builder.policy(kind, long_term_ttl=1_000.0, **knobs).run()
    simulation = built.simulation
    latencies = simulation.recovery_latencies()
    undelivered = sum(
        len(simulation.alive_members()) - simulation.received_count(seq)
        for seq in range(1, messages + 1)
    )
    assert built.total_probe is not None
    return {
        "avg total occupancy": built.total_probe.average(),
        "peak single-node occupancy": built.peak_node_occupancy,
        "mean recovery latency (ms)": mean(latencies) if latencies else 0.0,
        "control messages": float(simulation.control_message_count()),
        "data messages": float(simulation.data_message_count()),
        "undelivered": float(undelivered),
        "violations": float(simulation.violation_count()),
    }


def run_policy_comparison(
    region_size: int = 20,
    messages: int = 30,
    interval: float = 20.0,
    loss: float = 0.05,
    seeds: int = 3,
    settle: float = 1_500.0,
) -> SeriesTable:
    """Compare all buffering schemes on one streamed-WAN workload."""
    horizon = messages * interval + settle
    metric_names = [
        "avg total occupancy",
        "peak single-node occupancy",
        "mean recovery latency (ms)",
        "control messages",
        "data messages",
        "undelivered",
        "violations",
    ]
    labels = [label for label, _policy in _POLICIES]
    grid = [
        {"policy": label, "region_size": region_size, "messages": messages,
         "interval": interval, "loss": loss, "horizon": horizon}
        for label in labels
    ]
    per_point = run_sweep("ablation_policies", trial_policy, grid, seeds)
    columns: Dict[str, List[float]] = {name: [] for name in metric_names}
    for per_seed in per_point:
        for name in metric_names:
            columns[name].append(mean([run[name] for run in per_seed]))
    table = SeriesTable(
        title=(
            f"Ablation — buffering policies; 3x{region_size} members, "
            f"{messages} msgs @ {interval:g} ms, {loss:.0%} loss, {seeds} seeds"
        ),
        x_label="policy",
        xs=labels,
    )
    for name in metric_names:
        table.add_series(name, columns[name])
    table.notes.append(
        "two-phase: low spread-out occupancy; tree: hotspot at repair servers;"
        " stability: digest traffic dominates control messages"
    )
    return table
