"""Shared helpers for the experiment harness.

Every experiment returns a :class:`repro.metrics.report.SeriesTable`
whose rows are directly comparable to the corresponding paper figure;
benchmarks print them and EXPERIMENTS.md quotes them.

Per-seed work lives in **top-level trial functions** — picklable
``(params, seed) -> JSON-serializable dict`` units — which experiments
fan out with :func:`run_sweep` through the ambient
:class:`repro.runner.runner.Runner`.  The default runner executes serially
with no cache (the historical behaviour); the CLI installs a parallel,
cached runner via ``--jobs`` / ``--cache-dir``.

Every arm of every experiment is a :class:`~repro.scenario.spec.ScenarioSpec`:
the RRMP arms build it with ``spec.build()``/``run()``, the RMTP
baseline runs it through :func:`run_tree_baseline`, and the §3.2
late-request probes through :func:`late_request`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.protocol.messages import DataMessage
from repro.runner.runner import current_runner
from repro.runner.spec import SweepSpec
from repro.scenario.builder import ScenarioBuilder
from repro.scenario.materialize import BuiltScenario, build_group, require_envelope
from repro.scenario.spec import ScenarioSpec
from repro.tree.rmtp import TreeSimulation

__all__ = ["late_request", "run_sweep", "run_sweeps", "run_tree_baseline", "seed_list"]


def seed_list(seeds: int, base: int = 0) -> List[int]:
    """The canonical seed set for an experiment repetition count."""
    return [base + i for i in range(seeds)]


def run_sweep(
    experiment_id: str,
    trial: Any,
    grid: Sequence[Dict[str, Any]],
    seeds: "int | Sequence[int]",
) -> List[List[Any]]:
    """Fan ``grid`` × ``seeds`` through the ambient runner.

    ``seeds`` may be a repetition count (expanded via :func:`seed_list`,
    the convention every experiment uses) or an explicit seed sequence.
    Returns one result list per grid point, per-seed results in seed
    order — regardless of the backend's parallelism.
    """
    if isinstance(seeds, int):
        seeds = seed_list(seeds)
    sweep = SweepSpec(experiment_id, trial, list(grid), list(seeds))
    return current_runner().run_sweep(sweep)


def run_sweeps(sweeps: Sequence[SweepSpec]) -> List[List[List[Any]]]:
    """Run several sweeps as one batch through the ambient runner."""
    return current_runner().run_sweeps(sweeps)


def run_tree_baseline(spec: ScenarioSpec) -> BuiltScenario:
    """Run the RMTP-like repair-server tree (:mod:`repro.tree.rmtp`) on
    the RRMP arm's *spec*, built and loaded like an RRMP group, to its
    measurement end.  The ``tree`` column of
    :data:`~repro.scenario.materialize.ENVELOPE` says what it refuses and
    what it resets on the copy it installs.  The result's ``simulation``
    is the tree, read like any member group."""
    return build_group(require_envelope(spec, "tree"), TreeSimulation).run()


def late_request(builder: ScenarioBuilder, n: int, request_at: float) -> BuiltScenario:
    """Build the §3.2 late-request probe from *builder*'s policy,
    protocol and measurement: a region of *n* members that all received
    message 1, and one requester 500 ms downstream that detects its loss
    at *request_at* — after the region has gone idle.  Session messages
    are off, so nobody else learns of the message."""
    built = (
        builder.chain(n, 1)
        .latency(inter_one_way=500.0)
        .protocol(session_interval=None)
        .build()
    )
    group = built.simulation
    regions = group.hierarchy.regions
    data = DataMessage(seq=1, sender=group.sender.node_id)
    for node in regions[0].members:
        group.members[node].inject_receive(data)
    requester = group.members[regions[1].members[0]]
    group.sim.at(request_at, requester.inject_loss_detection, 1)
    return built
