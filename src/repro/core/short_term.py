"""Feedback-based short-term buffering (paper §3.1).

Every member that receives a message initially buffers it.  The member
then uses the retransmission requests it observes as *feedback*: each
request for a message pushes that message's idle deadline back to
``now + T``.  When a message has drawn no request for a full idle
threshold ``T``, it is declared **idle** and handed to the long-term
stage (which keeps it with probability C/n, else discards).

Why this works (§3.1): in a region of *n* members where a fraction *p*
misses the message, each missing member sends one uniformly-random
local request per round, so the probability that a particular holder
receives *no* request in a round is ``(1 - 1/(n-1))^{np} ≈ e^{-p}`` —
silence decays exponentially in the number of members still missing the
message.  The closed form lives in
:func:`repro.analysis.formulas.prob_no_request`; this module implements
the mechanism.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.protocol.messages import Seq
from repro.sim import Simulator, Timer


class FeedbackIdleTracker:
    """Tracks per-message idle timers for the short-term stage.

    Parameters
    ----------
    sim:
        The event engine (supplies time and timer scheduling).
    idle_threshold:
        ``T`` from §3.1 — paper value 40 ms (4 × the maximum RTT).
    on_idle:
        Callback invoked with the sequence number when a tracked
        message has seen no request for ``T`` milliseconds.
    """

    def __init__(
        self,
        sim: Simulator,
        idle_threshold: float,
        on_idle: Callable[[Seq], None],
    ) -> None:
        if idle_threshold <= 0:
            raise ValueError(f"idle_threshold must be > 0, got {idle_threshold!r}")
        self.sim = sim
        self.idle_threshold = idle_threshold
        self._on_idle = on_idle
        self._timers: Dict[Seq, Timer] = {}

    def track(self, seq: Seq) -> None:
        """Begin the idle countdown for a newly-buffered message."""
        if seq in self._timers:
            return
        timer = Timer(self.sim, self._fire, seq)
        self._timers[seq] = timer
        timer.start(self.idle_threshold)

    def refresh(self, seq: Seq) -> bool:
        """A request for *seq* arrived: push the deadline to now + T.

        Returns ``True`` if *seq* was being tracked.
        """
        timer = self._timers.get(seq)
        if timer is None:
            return False
        timer.start(self.idle_threshold)
        return True

    def untrack(self, seq: Seq) -> None:
        """Stop tracking *seq* (it was discarded or promoted)."""
        timer = self._timers.pop(seq, None)
        if timer is not None:
            timer.cancel()

    def is_tracking(self, seq: Seq) -> bool:
        """Whether *seq* currently has a live idle timer."""
        return seq in self._timers

    @property
    def tracked_count(self) -> int:
        """Number of messages with live idle timers."""
        return len(self._timers)

    def idle_deadline(self, seq: Seq) -> float:
        """Absolute time at which *seq* will be declared idle.

        Raises ``KeyError`` if *seq* is not tracked.
        """
        timer = self._timers[seq]
        deadline = timer.deadline
        if deadline is None:  # pragma: no cover - defensive
            raise KeyError(seq)
        return deadline

    def close(self) -> None:
        """Cancel every idle timer (member shutdown)."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()

    def _fire(self, seq: Seq) -> None:
        self._timers.pop(seq, None)
        self._on_idle(seq)
