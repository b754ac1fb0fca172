"""Sim/real differential harness.

Materialize one :class:`~repro.scenario.spec.ScenarioSpec` twice — in
the discrete-event simulator and over loopback UDP — run the invariant
oracle over both traces, and compare **normalized delivery digests**.
A mismatch means one of the two worlds is wrong: the simulator's
network model, the live transport, or the protocol's assumptions about
either.  That turns the live backend into a correctness oracle for the
simulator and vice versa.

Normalization
-------------
Wall-clock traces are not comparable: live timestamps jitter, loss
models sample in a different interleaving, and recoveries finish at
different instants.  What *is* comparable is the logical outcome of a
reliable multicast — **who delivered what**:

* ``delivered`` — the sorted set of ``(node, seq)`` pairs from
  ``member_received`` records;
* ``violations`` — the sorted set of ``(node, seq)`` pairs from
  ``reliability_violation`` records (recoveries that gave up).

The digest is the SHA-256 of the canonical JSON of those two sets.
Time, ordering, retry counts and traffic volume deliberately do not
participate: the protocol guarantees *delivery*, not a schedule.
Scenarios whose outcome is itself timing-dependent (churn races,
give-ups under sustained loss near ``max_recovery_time``) are honest
differential failures when the two worlds disagree — that sensitivity
is what the harness is for.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.scenario.spec import ScenarioSpec
from repro.sim.tracing import TraceRecord, trace_digest
from repro.validate.oracle import InvariantOracle


def delivery_sets(
    records: Iterable[TraceRecord],
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """The normalized ``(delivered, violations)`` sets of a trace."""
    delivered = set()
    violations = set()
    for record in records:
        if record.kind == "member_received":
            delivered.add((record["node"], record["seq"]))
        elif record.kind == "reliability_violation":
            violations.add((record["node"], record["seq"]))
    return sorted(delivered), sorted(violations)


def delivery_digest(records: Iterable[TraceRecord]) -> str:
    """SHA-256 over the canonical JSON of the normalized delivery sets."""
    delivered, violations = delivery_sets(records)
    payload = json.dumps(
        {"delivered": delivered, "violations": violations},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SideResult:
    """One world's run: digest, delivery sets, oracle verdict, summary.

    ``trace_digest`` is the raw (non-normalized) trace digest
    (:func:`~repro.sim.tracing.trace_digest` over the retained
    records).  It is *not* expected to match between worlds (timestamps
    differ); it identifies each side's exact trace for reproduction.
    """

    mode: str                          #: ``"sim"`` or ``"live"``
    digest: str
    delivered: List[Tuple[int, int]]
    violations: List[Tuple[int, int]]
    oracle_violations: int
    records_checked: int
    summary: Dict[str, Any]
    trace_digest: str = ""
    trace_records: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def of(cls, mode: str, records: List[TraceRecord], oracle: InvariantOracle,
           summary: Dict[str, Any]) -> "SideResult":
        """One world's result from its retained *records*, *oracle* and *summary*."""
        delivered, violations = delivery_sets(records)
        return cls(mode=mode, digest=delivery_digest(records), delivered=delivered,
                   violations=violations, oracle_violations=oracle.violation_count,
                   records_checked=oracle.records_checked, summary=summary,
                   trace_digest=trace_digest(records), trace_records=len(records))


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of one spec run in both worlds."""

    spec_name: str
    seed: int
    spec_digest: str
    sim: SideResult
    live: SideResult

    @property
    def digests_match(self) -> bool:
        """Whether both worlds produced the same delivery digest."""
        return self.sim.digest == self.live.digest

    @property
    def ok(self) -> bool:
        """Digests match and neither world violated an invariant."""
        return (self.digests_match and self.sim.oracle_violations == 0
                and self.live.oracle_violations == 0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.spec_name,
            "seed": self.seed,
            "spec_digest": self.spec_digest,
            "digests_match": self.digests_match,
            "ok": self.ok,
            "sim": self.sim.to_dict(),
            "live": self.live.to_dict(),
        }


def _with_trace(spec: ScenarioSpec) -> ScenarioSpec:
    """The spec both sides run: record retention and the oracle forced
    on.  Digests need retained records, and ``measurement.oracle``
    attaches the oracle *inside* the build, before probe workloads
    inject their records."""
    measurement = spec.measurement
    if measurement.keep_trace and measurement.oracle:
        return spec
    return spec.with_(measurement=dataclasses.replace(measurement, keep_trace=True, oracle=True))


def run_sim_side(spec: ScenarioSpec) -> SideResult:
    """Run *spec* in the discrete-event simulator under the oracle."""
    built = _with_trace(spec).build().run()
    assert built.oracle is not None  # forced on by _with_trace
    return SideResult.of("sim", built.simulation.trace.records, built.oracle, built.summary())


async def run_live_side(spec: ScenarioSpec, speedup: float = 1.0) -> SideResult:
    """Run *spec* over loopback UDP under the oracle."""
    from repro.live.session import run_spec_live

    session = await run_spec_live(_with_trace(spec), speedup=speedup)
    assert session.built.oracle is not None  # forced on by _with_trace
    return SideResult.of("live", session.trace.records, session.built.oracle, session.summary())


def run_differential(
    spec: ScenarioSpec,
    speedup: float = 1.0,
    seed: Optional[int] = None,
) -> DifferentialResult:
    """Run *spec* in both worlds and compare normalized digests."""
    if seed is not None:
        spec = spec.with_(seed=seed)
    sim_side = run_sim_side(spec)
    live_side = asyncio.run(run_live_side(spec, speedup=speedup))
    return DifferentialResult(
        spec_name=spec.name,
        seed=spec.seed,
        spec_digest=spec.digest(),
        sim=sim_side,
        live=live_side,
    )
