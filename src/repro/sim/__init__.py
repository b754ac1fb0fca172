"""Discrete-event simulation substrate (system S1 in DESIGN.md).

Everything in ``repro`` runs on this engine: a millisecond-resolution
virtual clock (:class:`Simulator`), lazily-cancellable events, protocol
timers (:class:`Timer`, :class:`PeriodicTask`), deterministic named RNG
streams (:class:`RandomStreams`) and a structured trace log
(:class:`TraceLog`).
"""

from repro.sim.engine import SimulationError, Simulator, total_events_fired
from repro.sim.events import Event, EventQueue
from repro.sim.randomness import RandomStreams, derive_seed, pick_other
from repro.sim.timers import PeriodicTask, Timer
from repro.sim.tracing import (
    StreamingTraceDigest,
    TraceLog,
    TraceRecord,
    record_line,
    trace_digest,
)

__all__ = [
    "Event",
    "EventQueue",
    "PeriodicTask",
    "RandomStreams",
    "SimulationError",
    "Simulator",
    "StreamingTraceDigest",
    "Timer",
    "TraceLog",
    "TraceRecord",
    "derive_seed",
    "pick_other",
    "record_line",
    "total_events_fired",
    "trace_digest",
]
