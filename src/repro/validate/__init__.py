"""Protocol validation: runtime invariant oracle + scenario fuzzing.

The safety net every other subsystem runs inside:

* :class:`~repro.validate.oracle.InvariantOracle` subscribes
  to a simulation's trace log and checks the protocol invariants of
  :mod:`repro.validate.invariants` — duplicate-free delivery, gapless
  per-receiver delivery, buffer conservation, the long-term quota,
  recovery liveness and FEC accounting — during any run.
* :func:`~repro.validate.fuzz.run_fuzz` samples random
  :class:`~repro.scenario.spec.ScenarioSpec` trees and runs each under
  the oracle, minimizing and persisting a repro artifact per failure.

Enable per run via ``MeasurementSpec(oracle=True)``, or from the CLI::

    rrmp validate run scale
    rrmp validate fuzz --trials 200 --seed 0
"""
