"""The closed send loop: generator arrivals under controller credit.

:class:`CongestionDriver` replaces the open-loop
``TrafficGenerator.schedule()`` install when a congestion controller is
configured.  Instead of precomputing every send instant, it schedules
one clock event at a time::

    t = generator.next_send(now, controller.send_credit(now))

so each transmission waits for both its offered-load arrival *and* the
controller's rate credit.  After every send the driver re-queries the
controller — rate changes take effect on the very next message.

The driver also owns the sender-side feedback plumbing:

* receiver :class:`~repro.protocol.messages.FeedbackReport` unicasts
  are dispatched through the sender member's ``extra_handlers`` slot;
* observed NACKs reach the controller by chaining the member's
  ``repair_interest_hook`` (preserving the reactive-FEC hook when both
  are active);
* when the sender runs proactive/reactive FEC, the controller's parity
  budget is applied to the encoder before each send (adaptive FEC:
  rising loss shifts parity up and, through the controller's rate law,
  rate down).

It drives any clock with a ``now`` property and an ``at(time, fn)``
method — the simulator and the live backend's ``LiveClock`` both
qualify, so the same controller code paces simulated and real-time
senders.

Trace events: ``cc_send`` (one per paced transmission), ``cc_feedback``
(one per report processed), ``cc_rate_change`` (the controller moved
its inter-send interval) and ``cc_parity_shift`` (adaptive FEC moved
the encoder's parity budget).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cc.controller import CongestionController
from repro.protocol.messages import FeedbackReport


class CongestionDriver:
    """Paces one sender's stream through a congestion controller."""

    def __init__(self, clock, sender, generator,
                 controller: CongestionController,
                 trace=None,
                 on_complete: Optional[Callable[[float], None]] = None) -> None:
        self.clock = clock
        self.sender = sender
        self.generator = generator
        self.controller = controller
        self.trace = trace
        self.on_complete = on_complete
        self.sent = 0
        #: No further send will be made: the stream ran dry or
        #: :meth:`stop` was called.
        self.done = False
        self._base_parity = sender.member.fec_spec.parity

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install feedback plumbing and schedule the first send."""
        self._install()
        self._schedule_next()

    def stop(self) -> None:
        """Stop pacing: no further sends are scheduled.  Idempotent."""
        self.done = True

    def _install(self) -> None:
        member = self.sender.member
        member.extra_handlers[FeedbackReport] = self._on_feedback
        previous = member.repair_interest_hook

        def _observe_nack(seq) -> None:
            # Chain: reactive FEC (or any earlier hook) still fires.
            if previous is not None:
                previous(seq)
            self.controller.on_nack(self.clock.now, seq)

        member.repair_interest_hook = _observe_nack

    # ------------------------------------------------------------------
    # The send loop
    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        now = self.clock.now
        credit = self.controller.send_credit(now)
        t = self.generator.next_send(now, credit)
        if t is None:
            self.done = True
            if self.on_complete is not None:
                self.on_complete(now)
            return
        self.clock.at(t if t > now else now, self._fire)

    def _fire(self) -> None:
        if self.done or not self.sender.member.alive:
            return  # stopped, or the sender departed and ended the session
        now = self.clock.now
        self._apply_parity_budget(now)
        self.sender.multicast()
        self.controller.on_send(now)
        self.sent += 1
        if self.trace is not None:
            self.trace.emit(now, "cc_send", seq=self.sender.max_seq,
                            interval=self.controller.interval())
        self._schedule_next()

    # ------------------------------------------------------------------
    # Feedback and adaptive FEC
    # ------------------------------------------------------------------
    def _on_feedback(self, report: FeedbackReport) -> None:
        now = self.clock.now
        before = self.controller.interval()
        self.controller.on_feedback(now, report)
        after = self.controller.interval()
        if self.trace is not None:
            self.trace.emit(now, "cc_feedback", receiver=report.receiver,
                            loss=report.loss_estimate, rtt=report.rtt_ms)
            if after != before:
                self.trace.emit(now, "cc_rate_change", interval=after,
                                previous=before)

    def _apply_parity_budget(self, now: float) -> None:
        encoder = self.sender.fec
        if encoder is None:
            return
        budget = self.controller.parity_budget(encoder.block_size,
                                               self._base_parity)
        if budget != encoder.parity:
            if self.trace is not None:
                self.trace.emit(now, "cc_parity_shift", parity=budget,
                                previous=encoder.parity)
            encoder.parity = budget
