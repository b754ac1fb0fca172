"""Discrete-event simulation substrate (system S1 in DESIGN.md).

Everything in ``repro`` runs on this engine: a millisecond-resolution
virtual clock that owns its event queue
(:class:`~repro.sim.engine.Simulator`), lazily-cancellable events
(:class:`~repro.sim.events.Event`), protocol timers
(:class:`~repro.sim.timers.Timer`, :class:`~repro.sim.timers.PeriodicTask`),
deterministic named RNG streams
(:class:`~repro.sim.randomness.RandomStreams`) and a structured trace
log (:class:`~repro.sim.tracing.TraceLog`).
"""
