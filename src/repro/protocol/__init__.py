"""The RRMP protocol (system S3 in DESIGN.md).

Wire messages, configuration, loss detection, the two-phase randomized
error-recovery algorithm (§2.2) and the member/sender state machines,
plus the :class:`~repro.protocol.rrmp.RrmpSimulation` facade that
assembles a full group.
"""
