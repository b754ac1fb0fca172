"""Seeded scenario fuzzing under the invariant oracle.

The paper's claims were exercised at exactly seven hand-picked points
of the :class:`~repro.scenario.spec.ScenarioSpec` space; the fuzzer
samples that space at random and runs every sampled spec under the
full invariant oracle.  Sampling is deterministic per ``(seed, trial
index)``, so a reported failure is reproducible by seed alone, and
every failure is additionally written out as a **repro artifact**: the
(minimized) spec's JSON, its digest, and the first violating trace
record, so any failure is a one-command replay::

    rrmp validate fuzz --trials 200 --seed 0 --artifacts out/
    rrmp validate replay out/repro_000042_ab12cd34ef56.json

A sample is drawn from the spec's own declarations.  For each node of
the spec the sampler picks one of the kinds its ``Literal``
discriminator declares and draws every other field from its annotation
and default: an ``int`` from :data:`SIZES`, a ``float`` as its default
times one of :data:`SCALES` (one of :data:`MAGNITUDES` when the default
is 0 or ``None``), an ``Optional`` field ``None`` now and then, a tuple
as one to three entries.  The node's ``__post_init__``, and the
spec's for the rules that tie nodes together, are the only range
rules: a draw they refuse is drawn again.  The minimizer likewise
resets one node to its default, or halves one size, at a time.

Two things a spec cannot know are this module's, and only these:

* **trial size** — at most :data:`MAX_MEMBERS` members, at most
  :data:`MAX_CHURN_EVENTS` churn events expected and at most
  :data:`MAX_MESSAGES` messages in the stream, so hundreds of trials
  run in seconds;
* **termination** — a finite ``max_recovery_time`` and
  ``max_search_rounds`` (otherwise a message nobody buffers spins
  recovery, or its search, forever: the §5 trade-off, not a bug) and a
  session heartbeat (so tail losses are detected at all).

A sampled run has no measurement bound: it ends by the run plan's
settle rule (:meth:`~repro.scenario.materialize.BuiltScenario.plan`),
then drains to a quiescent queue, which is what arms the oracle's
liveness checks.

A run must also make no reference cycles: the engine pauses the
cyclic collector while it runs (:mod:`repro.sim.engine`), so a cycle
would be garbage that only a full collection frees.  :func:`run_spec`
collects once after the build and once after the run, with the built
scenario alive, and a run that leaves cyclic garbage is a finding of
its own (``garbage:cyclic``), minimized and written out like any other.
"""

from __future__ import annotations

import gc
import json
import os
import random
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Literal,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.scenario.materialize import traffic_generator_for
from repro.scenario.spec import MeasurementSpec, ScenarioSpec
from repro.sim.engine import collector_paused
from repro.sim.randomness import RandomStreams

ARTIFACT_FORMAT = "rrmp-validate-repro/1"

#: The trial size (module docstring).
MAX_MEMBERS = 40
MAX_CHURN_EVENTS = 10
MAX_MESSAGES = 32

#: What a drawn ``int`` takes (and a tuple's length, from 1 to 3).
SIZES = (0, 1, 2, 3, 5, 8)
#: What a drawn ``float`` multiplies its default by...
SCALES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
#: ...or takes, when its default is 0 or ``None``.
MAGNITUDES = (0.0, 0.05, 0.5, 50.0, 200.0, 500.0)

#: The spec's nodes at their defaults; ``measurement`` is the fuzzer's.
NODES = {spec_field.name: spec_field.default_factory()
         for spec_field in fields(ScenarioSpec) if spec_field.name != "measurement"
         and callable(spec_field.default_factory)}

#: The trial size and termination rules a node must keep, by node.
RULES: Dict[str, Callable[[Any], bool]] = {
    "topology": lambda topology: topology.member_count() <= MAX_MEMBERS,
    "churn": lambda churn: churn.kind == "none" or churn.duration * (
        churn.leave_rate + churn.crash_rate + churn.join_rate) <= MAX_CHURN_EVENTS,
    "policy": lambda policy: None not in (
        policy.max_recovery_time, policy.max_search_rounds, policy.session_interval),
}


# ----------------------------------------------------------------------
# Spec sampling
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _hints(cls: type) -> Dict[str, Any]:
    return get_type_hints(cls)


def _draw(rng: random.Random, hint: Any, default: Any = None) -> Any:
    """A value for a field annotated *hint* whose default is *default*."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:
        return rng.choice(args)
    if origin is Union:  # Optional[...]
        return None if rng.random() < 0.2 else _draw(rng, args[0], default)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(_draw(rng, args[0]) for _ in range(rng.choice(SIZES[1:4])))
        return tuple(_draw(rng, arg) for arg in args)
    if hint is bool:
        return rng.random() < 0.5
    if hint is int:
        return rng.choice(SIZES)
    if hint is float:
        return default * rng.choice(SCALES) if default else rng.choice(MAGNITUDES)
    raise TypeError(f"no draw rule for annotation {hint!r}")


def _draw_node(rng: random.Random, name: str) -> Any:
    """The spec's *name* node, every field drawn, until the node
    constructs and keeps its rule."""
    cls = type(NODES[name])
    hints, rule = _hints(cls), RULES.get(name, bool)
    while True:
        values = {spec_field.name: _draw(rng, hints[spec_field.name], spec_field.default)
                  for spec_field in fields(cls)}
        try:
            node = cls(**values)
        except ValueError:
            continue
        if rule(node):
            return node


def _fits(spec: ScenarioSpec) -> bool:
    """Whether *spec* keeps the trial size and termination rules."""
    stream = traffic_generator_for(spec.traffic, spec, RandomStreams(spec.seed))
    return (all(rule(getattr(spec, name)) for name, rule in RULES.items())
            and (stream is None or stream.arrival_count() <= MAX_MESSAGES))


def sample_spec(seed: int, index: int) -> ScenarioSpec:
    """The deterministically-sampled spec for trial *index* of *seed*."""
    rng = random.Random(seed * 1_000_003 + index)
    while True:
        nodes = {name: _draw_node(rng, name) for name in NODES}
        try:
            spec = ScenarioSpec(
                name=f"fuzz-{seed}-{index}",
                seed=rng.randint(0, 2**31 - 1),
                measurement=MeasurementSpec(oracle=True),
                description=f"fuzzer sample (fuzz seed {seed}, trial {index})",
                **nodes,
            )
        except ValueError:
            continue
        if _fits(spec):
            return spec


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
    #: Objects the run left in reference cycles (the module docstring).
    cyclic_garbage: int = 0
    #: Recoveries that gave up (``reliability_violation`` records): the
    #: §5 trade-off, which a drawn trial may legitimately make, so not
    #: a failure here; ``validate run`` fails a named spec on it.
    give_ups: int = 0

    @property
    def failed(self) -> bool:
        return (self.violation_count > 0 or self.error is not None
                or self.cyclic_garbage > 0)

    @property
    def failure_key(self) -> str:
        """What class of failure this is (used to steer minimization)."""
        if self.error is not None:
            return f"error:{self.error.splitlines()[0][:80]}"
        if self.violations:
            return f"invariant:{self.violations[0]['invariant']}"
        if self.cyclic_garbage:
            return "garbage:cyclic"
        return ""


def run_spec(spec: ScenarioSpec) -> TrialOutcome:
    """Build and run *spec* under the oracle, capturing crashes and the
    cyclic garbage the run leaves too."""
    spec = replace(spec, measurement=replace(spec.measurement, oracle=True))
    outcome = TrialOutcome(spec=spec)
    try:
        built = spec.build()
        gc.collect()
        with collector_paused():
            built.run()
    except Exception as error:  # noqa: BLE001 - a crash IS a fuzz finding
        outcome.error = f"{type(error).__name__}: {error}"
        return outcome
    outcome.cyclic_garbage = gc.collect()
    oracle = built.oracle
    assert oracle is not None  # measurement.oracle forced above
    report = oracle.report_dict()
    outcome.violations = report["violations"]
    outcome.violation_count = report["violation_count"]
    outcome.records_checked = report["records_checked"]
    outcome.events_fired = built.simulation.sim.events_fired
    outcome.give_ups = built.simulation.violation_count()
    return outcome


# ----------------------------------------------------------------------
# Minimization
# ----------------------------------------------------------------------
def _shrink_candidates(spec: ScenarioSpec) -> List[Tuple[str, ScenarioSpec]]:
    """Ordered simplifications of *spec* to try: each non-default node
    reset to its default, then each size (an ``int`` above 1, a tuple of
    two or more entries) halved.  Only candidates that construct and
    keep the trial size are offered."""
    changes = [(f"reset {name}", name, default)
               for name, default in NODES.items() if getattr(spec, name) != default]
    for name in NODES:
        node = getattr(spec, name)
        for spec_field in fields(node):
            value = getattr(node, spec_field.name)
            if type(value) is int and value > 1:
                half: Any = value // 2
            elif isinstance(value, tuple) and len(value) > 1:
                half = value[:len(value) // 2]
            else:
                continue
            try:
                changes.append((f"halve {name}.{spec_field.name}", name,
                                replace(node, **{spec_field.name: half})))
            except ValueError:
                continue
    candidates = []
    for label, name, node in changes:
        try:
            candidate = replace(spec, **{name: node})
        except ValueError:
            continue
        if _fits(candidate):
            candidates.append((label, candidate))
    return candidates


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
    if outcome.cyclic_garbage:
        payload["cyclic_garbage"] = outcome.cyclic_garbage
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
    progress: Optional[Callable[[int, TrialOutcome], None]] = None,
) -> FuzzReport:
    """Run *trials* sampled scenarios under the oracle.

    Every failing trial is minimized and written to
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
            # Each accepted shrink was already run and verified to fail
            # identically, so the minimizer's outcome is final — no re-run
            # needed (None means nothing shrank and the original stands).
            _spec, minimized_outcome, runs = minimize_spec(spec, outcome.failure_key)
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
