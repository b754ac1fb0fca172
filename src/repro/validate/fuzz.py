"""Seeded scenario fuzzing under the invariant oracle.

The paper's claims were exercised at exactly seven hand-picked points
of the :class:`~repro.scenario.spec.ScenarioSpec` space; the fuzzer
samples that space at random — topology × traffic × loss × churn ×
policy × FEC — and runs every sampled spec under the full invariant
oracle.  Sampling is deterministic per ``(seed, trial index)``, so a
reported failure is reproducible by seed alone, and every failure is
additionally written out as a **repro artifact**: the (minimized)
spec's JSON, its digest, and the first violating trace record, so any
failure is a one-command replay::

    rrmp validate fuzz --trials 200 --seed 0 --artifacts out/
    rrmp validate replay out/repro_000042_ab12cd34ef56.json

Sampled specs are bounded small (tens of members, a handful of
messages, sub-second sim horizons) so hundreds of trials run in
seconds; they always end with a drain to a quiescent queue, which is
what arms the oracle's liveness checks.  Two sampling rules keep the
generated space inside the protocol's stated operating envelope rather
than trivially violating it: ``max_recovery_time`` is always finite
(otherwise a message nobody buffers spins recovery forever — the §5
trade-off, not a bug) and ``max_search_rounds`` is always finite (an
unbounded search for a fully-discarded message never terminates).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.scenario.spec import (
    AdaptSpec,
    ChurnSpec,
    CongestionSpec,
    FecSpec,
    LossSpec,
    MeasurementSpec,
    MobilitySpec,
    PlayoutSpec,
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
)

ARTIFACT_FORMAT = "rrmp-validate-repro/1"

#: Policy families the fuzzer samples.  ``stability`` is excluded: its
#: gossip agents tick forever, so a drain-to-quiescence run never ends.
POLICY_CHOICES = (
    "two_phase", "two_phase", "two_phase", "two_phase",  # weight the paper's policy
    "fixed_time", "fixed_time",
    "hash",
    "never_discard",
    "no_buffer",
)


# ----------------------------------------------------------------------
# Spec sampling
# ----------------------------------------------------------------------
def _sample_topology(rng: random.Random) -> TopologySpec:
    kind = rng.choice(("single_region", "single_region", "chain", "chain",
                       "star", "balanced_tree"))
    intra = rng.choice((2.5, 5.0, 10.0))
    inter = rng.choice((20.0, 40.0, 80.0))
    if kind == "single_region":
        return TopologySpec(kind=kind, n=rng.randint(2, 10),
                            intra_one_way=intra, inter_one_way=inter)
    if kind == "chain":
        sizes = tuple(rng.randint(2, 6) for _ in range(rng.randint(2, 3)))
        return TopologySpec(kind=kind, sizes=sizes,
                            intra_one_way=intra, inter_one_way=inter)
    if kind == "star":
        sizes = tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 2)))
        return TopologySpec(kind=kind, n=rng.randint(2, 5), sizes=sizes,
                            intra_one_way=intra, inter_one_way=inter)
    return TopologySpec(kind="balanced_tree", depth=1, fanout=2,
                        n=rng.randint(2, 3),
                        intra_one_way=intra, inter_one_way=inter)


def _sample_traffic(rng: random.Random, member_count: int) -> TrafficSpec:
    kind = rng.choice(("uniform", "uniform", "uniform", "poisson",
                       "burst", "ramp", "detect_all"))
    if kind == "uniform":
        return TrafficSpec(kind=kind, count=rng.randint(2, 10),
                           interval=rng.choice((5.0, 10.0, 25.0, 40.0)),
                           start=1.0)
    if kind == "poisson":
        return TrafficSpec(kind=kind, rate=rng.choice((0.02, 0.05, 0.1)),
                           duration=float(rng.randint(150, 350)), start=1.0)
    if kind == "burst":
        bursts = tuple(
            (float(rng.randint(1, 200)), rng.randint(2, 5))
            for _ in range(rng.randint(1, 3))
        )
        return TrafficSpec(kind=kind, bursts=bursts)
    if kind == "ramp":
        return TrafficSpec(kind=kind, count=rng.randint(4, 10),
                           initial_interval=rng.choice((20.0, 30.0)),
                           final_interval=rng.choice((2.0, 5.0)), start=1.0)
    return TrafficSpec(kind="detect_all",
                       holders=rng.randint(1, max(1, member_count // 2)))


def _traffic_end(traffic: TrafficSpec) -> float:
    """Upper bound on the last scheduled send time."""
    if traffic.kind == "uniform":
        return traffic.start + traffic.count * traffic.interval
    if traffic.kind == "poisson":
        return traffic.start + traffic.duration
    if traffic.kind == "burst":
        return max((time for time, _size in traffic.bursts), default=0.0)
    if traffic.kind == "ramp":
        mean_gap = (traffic.initial_interval + traffic.final_interval) / 2.0
        return traffic.start + traffic.count * mean_gap
    return 0.0  # detect_all injects at build time


def _sample_loss(rng: random.Random) -> LossSpec:
    kind = rng.choice(("none", "bernoulli", "bernoulli", "bernoulli",
                       "fixed_holders", "region_correlated", "gilbert_elliott",
                       "outage"))
    if kind == "bernoulli":
        return LossSpec(kind=kind, p=rng.choice((0.05, 0.1, 0.2, 0.35)))
    if kind == "fixed_holders":
        return LossSpec(kind=kind, k=rng.randint(0, 3))
    if kind == "region_correlated":
        return LossSpec(kind=kind,
                        region_loss=rng.choice((0.1, 0.25, 0.5)),
                        receiver_loss=rng.choice((0.0, 0.05, 0.15)))
    if kind == "gilbert_elliott":
        return LossSpec(kind=kind,
                        p_good_to_bad=rng.choice((0.01, 0.05)),
                        p_bad_to_good=rng.choice((0.2, 0.4)),
                        p_bad=rng.choice((0.5, 0.8)))
    if kind == "outage":
        return LossSpec(kind=kind,
                        outage_start=rng.choice((20.0, 60.0, 120.0)),
                        outage_duration=rng.choice((60.0, 120.0, 250.0)),
                        outage_regions=rng.randint(1, 2),
                        receiver_loss=rng.choice((0.0, 0.05)))
    return LossSpec()


def _sample_churn(rng: random.Random) -> ChurnSpec:
    if rng.random() < 0.55:
        return ChurnSpec()
    return ChurnSpec(
        kind="random",
        leave_rate=rng.choice((0.0, 0.002, 0.005)),
        crash_rate=rng.choice((0.0, 0.002, 0.005)),
        join_rate=rng.choice((0.0, 0.002, 0.005)),
        protect_sender=True,
    )


def _sample_policy(rng: random.Random) -> PolicySpec:
    kind = rng.choice(POLICY_CHOICES)
    # Finite recovery deadline and search budget keep every sampled run
    # terminating (see module docstring); sessions always on so tail
    # losses are detectable at all.
    common: Dict[str, Any] = dict(
        session_interval=float(rng.randint(15, 45)),
        remote_lambda=rng.choice((0.5, 1.0, 2.0)),
        max_recovery_time=float(rng.randint(300, 700)),
        max_search_rounds=rng.randint(8, 24),
    )
    if kind == "two_phase":
        return PolicySpec(
            kind=kind,
            c=rng.choice((0.0, 1.0, 3.0, 6.0)),
            idle_threshold=float(rng.randint(10, 60)),
            long_term_ttl=rng.choice((None, 150.0, 400.0)),
            **common,
        )
    if kind == "fixed_time":
        return PolicySpec(kind=kind, hold_time=float(rng.randint(40, 300)), **common)
    if kind == "hash":
        return PolicySpec(kind=kind, c=rng.choice((1.0, 3.0, 6.0)), **common)
    return PolicySpec(kind=kind, **common)


def _sample_fec(rng: random.Random) -> FecSpec:
    if rng.random() < 0.6:
        return FecSpec()
    return FecSpec(
        mode=rng.choice(("proactive", "reactive")),
        block_size=rng.randint(2, 6),
        parity=rng.randint(1, 2),
        flush_after=rng.choice((1.0, 20.0)),
    )


def _sample_congestion(rng: random.Random) -> CongestionSpec:
    # Mostly off, so the bulk of trials keep exercising the open-loop
    # paths; when on, small rate windows and short feedback intervals
    # make the controller actually move within a fuzz-sized run.
    if rng.random() < 0.7:
        return CongestionSpec()
    min_rate = rng.choice((1.0, 5.0, 20.0))
    return CongestionSpec(
        controller=rng.choice(("tfmcc", "tfmcc", "aimd")),
        target_loss=rng.choice((0.01, 0.05, 0.15)),
        min_rate=min_rate,
        max_rate=min_rate * rng.choice((5.0, 20.0, 100.0)),
        feedback_interval=rng.choice((20.0, 50.0, 100.0)),
        parity_min=rng.choice((None, 1)),
        parity_max=rng.choice((None, 2, 4)),
    )


def _sample_adapt(rng: random.Random) -> AdaptSpec:
    # ~30% on, so the adaptive-topology invariant sees adversarial
    # topologies regularly without dominating the trial budget.  Update
    # intervals are bounded small relative to fuzz-sized horizons so
    # the optimizer actually gets passes in.
    if rng.random() < 0.7:
        return AdaptSpec()
    return AdaptSpec(
        mode="passive",
        update_interval=rng.choice((50.0, 100.0, 200.0)),
        hysteresis=rng.choice((0.0, 0.1, 0.3)),
        max_reparents=rng.randint(1, 6),
        ewma_alpha=rng.choice((0.1, 0.2, 0.5)),
    )


def _sample_mobility(rng: random.Random) -> MobilitySpec:
    # ~30% on, mirroring the adapt node: the handoff-conservation
    # invariant then sees mobility handoffs regularly.  Duration 0
    # resolves to the measurement bound, so movement always terminates.
    if rng.random() < 0.7:
        return MobilitySpec()
    return MobilitySpec(
        kind="waypoint",
        speed=rng.choice((2.0, 5.0, 10.0)),
        epoch=rng.choice((25.0, 50.0)),
        distance_loss=rng.choice((0.0, 0.1, 0.25)),
        protect_sender=True,
    )


def _sample_playout(rng: random.Random) -> PlayoutSpec:
    # ~30% on: the rebuffer-accounting invariant cross-checks the
    # tracker against the delivery trace on these trials.
    if rng.random() < 0.7:
        return PlayoutSpec()
    return PlayoutSpec(
        kind="cbr",
        interval=rng.choice((10.0, 25.0, 50.0)),
        startup_delay=rng.choice((0.0, 50.0, 150.0)),
    )


def sample_spec(seed: int, index: int) -> ScenarioSpec:
    """The deterministically-sampled spec for trial *index* of *seed*."""
    rng = random.Random(seed * 1_000_003 + index)
    topology = _sample_topology(rng)
    traffic = _sample_traffic(rng, topology.member_count())
    loss = _sample_loss(rng)
    churn = _sample_churn(rng)
    policy = _sample_policy(rng)
    fec = _sample_fec(rng)
    congestion = _sample_congestion(rng)
    adapt = _sample_adapt(rng)
    mobility = _sample_mobility(rng)
    playout = _sample_playout(rng)
    session = policy.session_interval or 50.0
    duration = _traffic_end(traffic) + 3.0 * session + 100.0
    if congestion.enabled:
        # A throttled sender stretches the stream: the last arrival may
        # wait for credit at min_rate before the tail settles.
        duration += 1000.0 / congestion.min_rate + 3.0 * session
    if mobility.enabled:
        # Handoff re-joins accumulate gaps late in the run; give the
        # fresh members room to detect and recover (or give up) before
        # the drain is judged.
        duration += 300.0
    if loss.kind == "outage":
        # The partition must heal inside the run, with recovery room
        # after it, or gapless-delivery is judged mid-outage.
        duration = max(duration,
                       loss.outage_start + loss.outage_duration + 3.0 * session + 200.0)
    measurement = MeasurementSpec(duration=duration, drain=True, oracle=True)
    return ScenarioSpec(
        name=f"fuzz-{seed}-{index}",
        seed=rng.randint(0, 2**31 - 1),
        topology=topology,
        traffic=traffic,
        loss=loss,
        churn=churn,
        policy=policy,
        fec=fec,
        congestion=congestion,
        adapt=adapt,
        mobility=mobility,
        playout=playout,
        measurement=measurement,
        description=f"fuzzer sample (fuzz seed {seed}, trial {index})",
    )


# ----------------------------------------------------------------------
# Running one spec under the oracle
# ----------------------------------------------------------------------
@dataclass
class TrialOutcome:
    """What happened when one spec ran under the oracle."""

    spec: ScenarioSpec
    violations: List[Dict[str, Any]] = field(default_factory=list)
    violation_count: int = 0
    records_checked: int = 0
    events_fired: int = 0
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.violation_count > 0 or self.error is not None

    @property
    def failure_key(self) -> str:
        """What class of failure this is (used to steer minimization)."""
        if self.error is not None:
            return f"error:{self.error.splitlines()[0][:80]}"
        if self.violations:
            return f"invariant:{self.violations[0]['invariant']}"
        return ""


def run_spec(spec: ScenarioSpec) -> TrialOutcome:
    """Build and run *spec* under the oracle, capturing crashes too."""
    spec = replace(spec, measurement=replace(spec.measurement, oracle=True))
    outcome = TrialOutcome(spec=spec)
    try:
        built = spec.build().run()
    except Exception as error:  # noqa: BLE001 - a crash IS a fuzz finding
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome
    oracle = built.oracle
    assert oracle is not None  # measurement.oracle forced above
    report = oracle.report_dict()
    outcome.violations = report["violations"]
    outcome.violation_count = report["violation_count"]
    outcome.records_checked = report["records_checked"]
    outcome.events_fired = built.simulation.sim.events_fired
    return outcome


# ----------------------------------------------------------------------
# Minimization
# ----------------------------------------------------------------------
def _shrink_candidates(spec: ScenarioSpec) -> List[Tuple[str, ScenarioSpec]]:
    """Ordered simplifications of *spec* to try (coarsest first)."""
    candidates: List[Tuple[str, ScenarioSpec]] = []
    if spec.mobility.enabled:
        candidates.append(("drop mobility", replace(spec, mobility=MobilitySpec())))
    if spec.playout.enabled:
        candidates.append(("drop playout", replace(spec, playout=PlayoutSpec())))
    if spec.churn.kind != "none":
        candidates.append(("drop churn", replace(spec, churn=ChurnSpec())))
    if spec.congestion.enabled:
        candidates.append(
            ("drop congestion", replace(spec, congestion=CongestionSpec()))
        )
    if spec.adapt.enabled:
        candidates.append(("drop adapt", replace(spec, adapt=AdaptSpec())))
    if spec.fec.mode != "off":
        candidates.append(("drop fec", replace(spec, fec=FecSpec())))
    if spec.loss.kind != "none":
        candidates.append(("drop loss", replace(spec, loss=LossSpec())))
    traffic = spec.traffic
    if traffic.kind in ("uniform", "ramp") and traffic.count > 1:
        candidates.append((
            "halve traffic",
            replace(spec, traffic=replace(traffic, count=max(1, traffic.count // 2))),
        ))
    if traffic.kind == "poisson" and traffic.duration > 50.0:
        candidates.append((
            "halve traffic window",
            replace(spec, traffic=replace(traffic, duration=traffic.duration / 2.0)),
        ))
    if traffic.kind == "burst" and len(traffic.bursts) > 1:
        candidates.append((
            "drop bursts",
            replace(spec, traffic=replace(traffic, bursts=traffic.bursts[:1])),
        ))
    topology = spec.topology
    if topology.kind == "single_region" and topology.n > 2:
        smaller = replace(topology, n=max(2, topology.n // 2))
        candidates.append(("halve region", _clamped(spec, smaller)))
    if topology.kind in ("chain", "star") and len(topology.sizes) > 1:
        smaller = replace(topology, sizes=topology.sizes[:-1])
        candidates.append(("drop region", _clamped(spec, smaller)))
    return candidates


def _clamped(spec: ScenarioSpec, topology: TopologySpec) -> ScenarioSpec:
    """Re-fit member-count-dependent traffic fields to a smaller topology."""
    traffic = spec.traffic
    members = topology.member_count()
    if traffic.kind == "detect_all" and traffic.holders > members:
        traffic = replace(traffic, holders=max(1, members))
    if traffic.kind == "search_probe":
        first = topology.sizes[0] if topology.kind == "chain" and topology.sizes \
            else topology.n
        if traffic.bufferers > first:
            traffic = replace(traffic, bufferers=first)
    return replace(spec, topology=topology, traffic=traffic)


def minimize_spec(
    spec: ScenarioSpec,
    failure_key: str,
    max_runs: int = 24,
) -> Tuple[ScenarioSpec, Optional[TrialOutcome], int]:
    """Greedily simplify *spec* while it keeps failing the same way.

    Returns ``(smallest reproducing spec, its failing outcome or None
    if no shrink succeeded, verification runs spent)``.  Conservative
    by construction: a candidate is accepted only if a fresh run still
    produces the same failure class (same first-violated invariant, or
    same error type) — so the returned outcome needs no re-running.
    """
    runs = 0
    best: Optional[TrialOutcome] = None
    progress = True
    while progress and runs < max_runs:
        progress = False
        for _label, candidate in _shrink_candidates(spec):
            if runs >= max_runs:
                break
            try:
                outcome = run_spec(candidate)
            except Exception:  # pragma: no cover - run_spec already guards
                continue
            runs += 1
            if outcome.failed and outcome.failure_key == failure_key:
                spec = candidate
                best = outcome
                progress = True
                break
    return spec, best, runs


# ----------------------------------------------------------------------
# Repro artifacts
# ----------------------------------------------------------------------
def artifact_payload(
    outcome: TrialOutcome,
    fuzz_seed: int,
    trial_index: int,
) -> Dict[str, Any]:
    """The JSON body of one repro artifact."""
    payload: Dict[str, Any] = {
        "format": ARTIFACT_FORMAT,
        "fuzz_seed": fuzz_seed,
        "trial_index": trial_index,
        "digest": outcome.spec.digest(),
        "failure": outcome.failure_key,
        "violation_count": outcome.violation_count,
        "spec": outcome.spec.to_dict(),
        "replay": "rrmp validate replay <this file>",
    }
    if outcome.error is not None:
        payload["error"] = outcome.error
    if outcome.violations:
        payload["first_violation"] = outcome.violations[0]
    return payload


def write_artifact(payload: Dict[str, Any], directory: str) -> str:
    """Write one artifact; returns its path."""
    os.makedirs(directory, exist_ok=True)
    name = (
        f"repro_{payload['trial_index']:06d}_{payload['digest'][:12]}.json"
    )
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path


def load_artifact_spec(path: str) -> ScenarioSpec:
    """The spec stored in a repro artifact (or a bare spec JSON file)."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict) and "spec" in payload:
        payload = payload["spec"]
    return ScenarioSpec.from_dict(payload)


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Aggregate result of one fuzz session."""

    trials: int
    seed: int
    failures: List[Dict[str, Any]] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)
    records_checked: int = 0
    events_fired: int = 0
    minimization_runs: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "ok": self.ok,
            "failures": self.failures,
            "artifacts": self.artifacts,
            "records_checked": self.records_checked,
            "events_fired": self.events_fired,
            "minimization_runs": self.minimization_runs,
        }


def run_fuzz(
    trials: int,
    seed: int = 0,
    artifact_dir: Optional[str] = None,
    minimize: bool = True,
    progress: Optional[Callable[[int, TrialOutcome], None]] = None,
) -> FuzzReport:
    """Run *trials* sampled scenarios under the oracle.

    Every failing trial is (optionally) minimized and written to
    *artifact_dir* as a repro artifact.  *progress* is invoked after
    each trial with ``(index, outcome)``.
    """
    report = FuzzReport(trials=trials, seed=seed)
    for index in range(trials):
        spec = sample_spec(seed, index)
        outcome = run_spec(spec)
        report.records_checked += outcome.records_checked
        report.events_fired += outcome.events_fired
        if outcome.failed:
            if minimize:
                # Each accepted shrink was already run and verified to
                # fail identically, so the minimizer's outcome is final
                # — no re-run needed (None means nothing shrank and the
                # original outcome stands).
                _spec, minimized_outcome, runs = minimize_spec(
                    spec, outcome.failure_key
                )
                report.minimization_runs += runs
                if minimized_outcome is not None:
                    outcome = minimized_outcome
            failure = artifact_payload(outcome, seed, index)
            report.failures.append(failure)
            if artifact_dir is not None:
                report.artifacts.append(write_artifact(failure, artifact_dir))
        if progress is not None:
            progress(index, outcome)
    return report
