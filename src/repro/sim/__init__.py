"""Discrete-event simulation substrate (system S1 in DESIGN.md).

Everything in ``repro`` runs on this engine: a millisecond-resolution
virtual clock that owns its event queue (:class:`Simulator`),
lazily-cancellable events (:class:`Event`), protocol timers
(:class:`Timer`, :class:`PeriodicTask`), deterministic named RNG streams
(:class:`RandomStreams`) and a structured trace log (:class:`TraceLog`).
"""

from repro.sim.engine import SimulationError, Simulator, total_events_fired
from repro.sim.events import Event
from repro.sim.randomness import RandomStreams, derive_seed, pick_other
from repro.sim.timers import PeriodicTask, Timer
from repro.sim.tracing import (
    TraceLog,
    TraceRecord,
    record_line,
    trace_digest,
)

__all__ = [
    "Event",
    "PeriodicTask",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "Timer",
    "TraceLog",
    "TraceRecord",
    "derive_seed",
    "pick_other",
    "record_line",
    "total_events_fired",
    "trace_digest",
]
