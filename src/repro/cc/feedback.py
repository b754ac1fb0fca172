"""Receiver-side feedback: periodic state reports back to the sender.

NORM/TFMCC senders adapt to the *worst* receiver, which requires
hearing from receivers at all.  When (and only when) a congestion
controller is configured, every receiver arms a :class:`FeedbackReporter`
— a periodic task unicasting a
:class:`~repro.protocol.messages.FeedbackReport` with its locally
observed state:

* ``loss_estimate`` — the fraction of the sender's advertised stream
  the receiver has not (yet) delivered.  Recovered messages count as
  delivered, so this is a *backlog* signal: under light load recovery
  catches up and the estimate decays to zero; under overload the
  recovery machinery lags and the estimate grows — exactly the regime
  the controller must throttle.
* ``rtt_ms`` — the receiver's RTT estimate towards the sender (the
  member's ``rtt_to`` surface, i.e. the transport's latency model).
* ``max_seq`` / ``received`` — raw counters for observability.

Reports ride the normal unicast path (control wire size, counted in
network stats), so feedback traffic is part of the measured overhead.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.net.topology import NodeId
from repro.protocol.messages import FeedbackReport
from repro.sim.timers import PeriodicTask

#: Reporter start phases are staggered across this many slots so a big
#: region does not synchronize its feedback into one burst per interval.
_PHASE_SLOTS = 8


def build_feedback(member, sender_node: NodeId) -> FeedbackReport:
    """Snapshot *member*'s observed state into a report for the sender."""
    highest = member.gap.highest
    expected = max(highest, 0)
    received = member.gap.received_count
    loss = 0.0 if expected <= 0 else max(0.0, 1.0 - received / expected)
    return FeedbackReport(
        receiver=member.node_id,
        loss_estimate=loss,
        rtt_ms=member.rtt_to(sender_node),
        max_seq=highest,
        received=received,
    )


class FeedbackReporter:
    """Periodically unicast one member's feedback report to the sender."""

    def __init__(self, member, sender_node: NodeId, interval: float) -> None:
        self.member = member
        self.sender_node = sender_node
        self._task = PeriodicTask(member.sim, interval, self.report_now)

    @property
    def running(self) -> bool:
        """Whether the reporter is currently scheduled."""
        return self._task.running

    def start(self, phase: Optional[float] = None) -> None:
        """Begin reporting; *phase* delays the first report."""
        self._task.start(phase)

    def stop(self) -> None:
        """Stop reporting.  Idempotent."""
        self._task.stop()

    def report_now(self) -> None:
        """Send one report immediately (the periodic task's callback)."""
        member = self.member
        if not member.alive or not member.hierarchy.contains(self.sender_node):
            # This receiver left, or the sender did and ended the session.
            self.stop()
            return
        report = build_feedback(member, self.sender_node)
        member.network.unicast(member.node_id, self.sender_node, report)


def install_feedback_reporters(members: Iterable, sender_node: NodeId,
                               interval: float) -> List[FeedbackReporter]:
    """Arm a started reporter on every member except the sender itself.

    Start phases are staggered deterministically by node id so the
    sender's feedback windows see a spread of reports rather than one
    synchronized burst.
    """
    reporters: List[FeedbackReporter] = []
    for member in members:
        if member.node_id == sender_node:
            continue
        reporter = FeedbackReporter(member, sender_node, interval)
        slot = member.node_id % _PHASE_SLOTS
        reporter.start(phase=interval * (slot + 1) / _PHASE_SLOTS)
        reporters.append(reporter)
    return reporters
