"""Stability-detection baseline (system S6 in DESIGN.md; paper ref [8]).

Members periodically gossip low-watermark history digests; a message is
discarded only once it is known to be received by the entire group.
The buffer policy the agents clear is
:class:`repro.core.policies.StabilityBufferPolicy` (policy kind
``stability``).  Safe but membership-hungry and traffic-hungry — the contrast class for
RRMP's feedback-based scheme.
"""
