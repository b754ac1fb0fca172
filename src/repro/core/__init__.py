"""The paper's primary contribution (system S4 in DESIGN.md).

Two-phase buffer management for RRMP:

* :class:`TwoPhaseBufferPolicy` — feedback-based short-term buffering
  (§3.1) composed with randomized long-term buffering (§3.2);
* :class:`SearchCoordinator` — the randomized search for bufferers that
  answers remote requests for already-discarded messages (§3.3);
* :func:`plan_handoff` — long-term buffer transfer on graceful leave;
* the :class:`BufferPolicy` interface plus simple baselines
  (fixed-time, never-discard, no-buffer, stability) used in comparisons.
"""

from repro.core.buffer import (
    DISCARD_CLOSE,
    DISCARD_FIXED,
    DISCARD_HANDOFF,
    DISCARD_IDLE,
    DISCARD_STABLE,
    DISCARD_TTL,
    BufferEntry,
    BufferRecord,
    MessageBuffer,
)
from repro.core.handoff import handoff_load, plan_handoff
from repro.core.long_term import keeps_long_term, long_term_probability
from repro.core.manager import TwoPhaseBufferPolicy
from repro.core.policies import (
    BufferHost,
    BufferPolicy,
    FixedTimePolicy,
    NeverDiscardPolicy,
    NoBufferPolicy,
    StabilityBufferPolicy,
)
from repro.core.search import SearchCoordinator, SearchHost

__all__ = [
    "BufferEntry",
    "BufferHost",
    "BufferPolicy",
    "BufferRecord",
    "DISCARD_CLOSE",
    "DISCARD_FIXED",
    "DISCARD_HANDOFF",
    "DISCARD_IDLE",
    "DISCARD_STABLE",
    "DISCARD_TTL",
    "FixedTimePolicy",
    "MessageBuffer",
    "NeverDiscardPolicy",
    "NoBufferPolicy",
    "SearchCoordinator",
    "SearchHost",
    "StabilityBufferPolicy",
    "TwoPhaseBufferPolicy",
    "handoff_load",
    "keeps_long_term",
    "long_term_probability",
    "plan_handoff",
]
