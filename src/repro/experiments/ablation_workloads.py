"""Ablation — workload families: static vs mobile vs outage delivery.

The paper evaluates RRMP under static membership and independent
losses; the workload families added around it (``repro.workloads``)
ask how the same protocol behaves when the *workload* moves instead.
This ablation runs one streaming session — a CBR frame stream judged
against per-receiver playout deadlines — under three conditions:

* ``static``   — the registry's ``streaming_playback`` scenario as-is:
  fixed membership, independent Bernoulli loss;
* ``mobility`` — the same stream with random-waypoint movement layered
  on top: members roam between regions, each region change handing the
  member's buffers off through the §3.2 long-term-holder path;
* ``outage``   — the same stream with a whole-region partition
  mid-session: one region falls off the WAN, accumulates a mass gap
  and recovers after the heal.

The headline numbers are the session makespan and the rebuffer account
(stall events and stalled time across receivers) — the quantities a
playback workload actually experiences.  Every run executes under the
invariant oracle, so the ``handoff-conservation`` and
``rebuffer-accounting`` invariants audit each trial.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.experiments.base import run_sweeps, seed_list
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean
from repro.runner.spec import SweepSpec
from repro.scenario.library import get_scenario
from repro.scenario.spec import LossSpec, MobilitySpec, ScenarioSpec

#: Workload conditions compared on the same stream.
_MODES = ("static", "mobility", "outage")

#: The registry scenario every mode perturbs.
_BASE_SCENARIO = "streaming_playback"


def _mode_spec(mode: str, seed: int, speed: float, epoch: float,
               outage_start: float, outage_duration: float) -> ScenarioSpec:
    spec = replace(get_scenario(_BASE_SCENARIO), seed=seed)
    if mode == "mobility":
        return replace(spec, mobility=MobilitySpec(
            kind="waypoint", speed=speed, epoch=epoch, distance_loss=0.10,
        ))
    if mode == "outage":
        # Keep the base receiver-loss floor so the only change is the
        # partition window, not the ambient loss rate.
        return replace(spec, loss=LossSpec(
            kind="outage",
            outage_start=outage_start,
            outage_duration=outage_duration,
            outage_regions=1,
            receiver_loss=spec.loss.p,
        ))
    if mode != "static":  # pragma: no cover - grid guard
        raise ValueError(f"unknown workload mode {mode!r}")
    return spec


def trial_workloads(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: the streaming session under one workload mode."""
    spec = _mode_spec(
        str(params["mode"]), seed,
        speed=float(params["speed"]),
        epoch=float(params["epoch"]),
        outage_start=float(params["outage_start"]),
        outage_duration=float(params["outage_duration"]),
    )
    spec = replace(spec, measurement=replace(spec.measurement, oracle=True))
    built = spec.build().run()
    summary = built.summary()
    return {
        "makespan": float(summary.get("makespan_session_ms", 0.0)),
        "rebuffer_events": float(summary.get("rebuffer_events", 0.0)),
        "rebuffer_time": float(summary.get("rebuffer_time_ms", 0.0)),
        "delivered_fraction": float(summary.get("delivered_fraction", 0.0)),
        "handoffs": float(summary.get("mobility_handoffs", 0.0)),
        "violations": float(summary.get("invariant_violations", 0.0)),
    }


def run_workloads_ablation(
    seeds: int = 5,
    speed: float = 2.0,
    epoch: float = 50.0,
    outage_start: float = 200.0,
    outage_duration: float = 300.0,
) -> SeriesTable:
    """Compare the stream's smoothness across workload conditions."""
    table = SeriesTable(
        title=(
            f"Ablation — workload families on the streaming session; "
            f"{seeds} seeds, waypoint speed {speed:g} @ {epoch:g} ms "
            f"epochs, outage {outage_start:g}+{outage_duration:g} ms"
        ),
        x_label="workload",
        xs=list(_MODES),
    )
    grid = [
        {"mode": mode, "speed": speed, "epoch": epoch,
         "outage_start": outage_start, "outage_duration": outage_duration}
        for mode in _MODES
    ]
    (results,) = run_sweeps([
        SweepSpec("ablation_workloads", trial_workloads, grid,
                  seed_list(seeds)),
    ])
    table.add_series("session makespan (ms)", [
        mean([run["makespan"] for run in runs]) for runs in results
    ])
    table.add_series("rebuffer events", [
        mean([run["rebuffer_events"] for run in runs]) for runs in results
    ])
    table.add_series("rebuffer time (ms)", [
        mean([run["rebuffer_time"] for run in runs]) for runs in results
    ])
    table.add_series("delivered fraction", [
        mean([run["delivered_fraction"] for run in runs]) for runs in results
    ])
    table.add_series("mobility handoffs", [
        mean([run["handoffs"] for run in runs]) for runs in results
    ])
    table.add_series("invariant violations", [
        sum(run["violations"] for run in runs) for runs in results
    ])
    table.notes.append(
        "rebuffer time = sum over receivers of (arrival - deadline) for "
        "every frame that missed its playout deadline; the deadline "
        "resets to the late arrival, so one long gap counts once"
    )
    table.notes.append(
        "mobility hands buffers off through the long-term-holder path on "
        "every region change; fresh member ids join mid-stream, so the "
        "delivered fraction dips below the static run by construction"
    )
    return table
