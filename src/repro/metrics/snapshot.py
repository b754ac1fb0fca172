"""Periodic metrics snapshots for long-running (daemon-mode) groups.

The experiment harness measures a run after the fact, from its trace;
a live deployment needs the same headline numbers *while it runs*.
:func:`take_snapshot` reads them off any built scenario (simulated
or live) without touching protocol state, and chains snapshots so rate
quantities (goodput) come out per interval rather than cumulative.

The ``live daemon`` CLI emits one JSON line per snapshot — the natural
input for tailing, plotting, or shipping to a collector.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro.metrics.stats import mean


@dataclass(frozen=True)
class MetricsSnapshot:
    """One sample of a running group's health."""

    time_ms: float                    #: virtual clock at sample time
    alive_members: int
    buffer_occupancy: int             #: total buffered messages
    long_term_buffered: int           #: of which long-term (paper §3.2)
    delivered_total: int              #: cumulative member deliveries
    recoveries_completed: int
    mean_recovery_latency_ms: float
    reliability_violations: int
    control_messages: int
    data_messages: int
    send_dropped: int                 #: sends to unregistered nodes
    goodput_msgs_per_s: float         #: deliveries/s since the previous
                                      #: snapshot (cumulative if first)
    session_makespan_ms: float = 0.0  #: first→last delivery span so far
                                      #: (0.0 when no tracker/deliveries)
    rebuffer_events: int = 0          #: playout stalls so far (0 when no
                                      #: rebuffer tracker is attached)
    rebuffer_time_ms: float = 0.0     #: total stall time across receivers

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload (the daemon's line format)."""
        return asdict(self)


def long_term_buffered(group) -> int:
    """Total long-term-buffered messages across alive members.

    Policies without a long-term phase (baselines) count zero.
    """
    return sum(member.policy.buffer.long_term_count for member in group.alive_members())


def take_snapshot(built, previous: Optional[MetricsSnapshot] = None) -> MetricsSnapshot:
    """Sample the group of *built* (a
    :class:`~repro.scenario.materialize.BuiltScenario`), with the
    makespan and playout trackers it installed.

    *previous* — the last snapshot of the same group — turns
    ``goodput_msgs_per_s`` into a per-interval rate; without it the
    rate is computed over the whole run so far.
    """
    group = built.simulation
    now = group.sim.now
    # The log tallies every record it emits, retained or not.
    delivered = group.trace.count("member_received")
    latencies = group.recovery_latencies()
    if previous is not None:
        delta_msgs = delivered - previous.delivered_total
        delta_ms = now - previous.time_ms
    else:
        delta_msgs = delivered
        delta_ms = now
    goodput = (delta_msgs / (delta_ms / 1000.0)) if delta_ms > 0 else 0.0
    tracker = built.makespan
    makespan_ms = tracker.session_makespan() if tracker is not None else 0.0
    rebuffer = built.rebuffer
    return MetricsSnapshot(
        time_ms=now,
        alive_members=len(group.alive_members()),
        buffer_occupancy=group.buffer_occupancy(),
        long_term_buffered=long_term_buffered(group),
        delivered_total=delivered,
        recoveries_completed=len(latencies),
        mean_recovery_latency_ms=mean(latencies) if latencies else 0.0,
        reliability_violations=group.violation_count(),
        control_messages=group.control_message_count(),
        data_messages=group.data_message_count(),
        send_dropped=group.network.stats.send_dropped,
        goodput_msgs_per_s=goodput,
        session_makespan_ms=makespan_ms,
        rebuffer_events=rebuffer.total_stall_events() if rebuffer else 0,
        rebuffer_time_ms=rebuffer.total_stall_time() if rebuffer else 0.0,
    )
