"""Protocol validation: runtime invariant oracle + scenario fuzzing.

The safety net every other subsystem runs inside:

* :class:`InvariantOracle` (:mod:`repro.validate.oracle`) subscribes
  to a simulation's trace log and checks the protocol invariants of
  :mod:`repro.validate.invariants` — duplicate-free delivery, gapless
  per-receiver delivery, buffer conservation, the long-term quota,
  recovery liveness and FEC accounting — during any run.
* :func:`run_fuzz` (:mod:`repro.validate.fuzz`) samples random
  :class:`~repro.scenario.spec.ScenarioSpec` trees and runs each under
  the oracle, minimizing and persisting a repro artifact per failure.

Enable per run via ``MeasurementSpec(oracle=True)``, or from the CLI::

    rrmp validate run scale
    rrmp validate fuzz --trials 200 --seed 0
"""

from repro.validate.fuzz import (
    FuzzReport,
    TrialOutcome,
    load_artifact_spec,
    minimize_spec,
    run_fuzz,
    run_spec,
    sample_spec,
)
from repro.validate.invariants import (
    Invariant,
    Violation,
    default_invariants,
)
from repro.validate.oracle import InvariantOracle

__all__ = [
    "FuzzReport",
    "Invariant",
    "InvariantOracle",
    "TrialOutcome",
    "Violation",
    "default_invariants",
    "load_artifact_spec",
    "minimize_spec",
    "run_fuzz",
    "run_spec",
    "sample_spec",
]
