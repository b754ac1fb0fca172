"""The paper's primary contribution (system S4 in DESIGN.md).

Two-phase buffer management for RRMP:

* :class:`~repro.core.manager.TwoPhaseBufferPolicy` — feedback-based
  short-term buffering (§3.1) composed with randomized long-term
  buffering (§3.2);
* :class:`~repro.core.search.SearchCoordinator` — the randomized search
  for bufferers that answers remote requests for already-discarded
  messages (§3.3);
* :func:`~repro.core.handoff.plan_handoff` — long-term buffer transfer
  on graceful leave;
* the :class:`~repro.core.policies.BufferPolicy` interface plus simple baselines
  (fixed-time, never-discard, no-buffer, stability) used in comparisons.
"""
