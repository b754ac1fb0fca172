"""The runtime invariant oracle.

:class:`InvariantOracle` subscribes the protocol invariants of
:mod:`repro.validate.invariants` to a simulation's
:class:`~repro.sim.tracing.TraceLog`, each to the record kinds it
checks, so they see those records while the run executes;
:meth:`finish` then sweeps live member state (buffers, gap trackers,
recovery processes) for the end-of-run checks.  Attach it to any
:class:`~repro.protocol.rrmp.RrmpSimulation` — directly, via
``MeasurementSpec(oracle=True)``, or through the ``validate`` CLI::

    oracle = InvariantOracle().attach(simulation)
    simulation.run(duration=...)
    violations = oracle.finish()

The oracle is an observer: it never schedules events, never draws from
an RNG stream, and never mutates protocol state, so an oracle-carrying
run is event-for-event identical to the same run without it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.validate.invariants import (
    EndContext,
    Invariant,
    Violation,
    default_invariants,
)

#: Stop *storing* violations beyond this many (they are still counted);
#: a systematically broken run would otherwise hoard memory.
MAX_STORED_VIOLATIONS = 200


class InvariantOracle:
    """Checks protocol invariants against one simulation run."""

    def __init__(self, invariants: Optional[Sequence[Invariant]] = None) -> None:
        self._invariants: List[Invariant] = list(
            invariants if invariants is not None else default_invariants()
        )
        for invariant in self._invariants:
            invariant.bind(self)
        self.simulation = None
        self._emitted_at_attach = 0
        self.violation_count = 0
        self._violations: List[Violation] = []
        self._finished = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, simulation) -> "InvariantOracle":
        """Subscribe to *simulation*'s trace log.  Call once, before the
        run starts (records emitted earlier are not replayed)."""
        if self.simulation is not None:
            raise RuntimeError("oracle already attached; use one oracle per run")
        trace = simulation.trace
        self.simulation = simulation
        self._emitted_at_attach = trace.emitted
        for invariant in self._invariants:
            for kind in invariant.kinds:
                trace.subscribe(invariant.on_record, kind)
        return self

    @property
    def records_checked(self) -> int:
        """Records emitted while attached, of every kind (0 before)."""
        if self.simulation is None:
            return 0
        return self.simulation.trace.emitted - self._emitted_at_attach

    # ------------------------------------------------------------------
    # Violation sink (called by invariants)
    # ------------------------------------------------------------------
    def report(self, violation: Violation) -> None:
        """Record one violation (stores the first ``MAX_STORED_VIOLATIONS``)."""
        self.violation_count += 1
        if len(self._violations) < MAX_STORED_VIOLATIONS:
            self._violations.append(violation)

    @property
    def violations(self) -> Sequence[Violation]:
        """Stored violations, in detection order."""
        return tuple(self._violations)

    @property
    def ok(self) -> bool:
        """Whether no invariant has been violated so far."""
        return self.violation_count == 0

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def finish(self) -> Sequence[Violation]:
        """Run the end-of-run sweeps; idempotent.  Returns all stored
        violations (run-time and end-of-run alike).

        Liveness-style checks only apply when the event queue fully
        drained (``quiescent``): a horizon-bounded run legitimately
        stops with recoveries in flight.
        """
        if self.simulation is None:
            raise RuntimeError("oracle was never attached to a simulation")
        if not self._finished:
            self._finished = True
            ctx = EndContext(
                self.simulation,
                quiescent=self.simulation.sim.pending_events == 0,
            )
            for invariant in self._invariants:
                invariant.at_end(ctx)
        return self.violations

    def report_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (the ``validate`` CLI payload)."""
        per_invariant: Dict[str, int] = {
            invariant.name: 0 for invariant in self._invariants
        }
        for violation in self._violations:
            per_invariant[violation.invariant] = (
                per_invariant.get(violation.invariant, 0) + 1
            )
        return {
            "records_checked": self.records_checked,
            "violation_count": self.violation_count,
            "violations_by_invariant": per_invariant,
            "violations": [violation.to_dict() for violation in self._violations],
            "finished": self._finished,
        }
