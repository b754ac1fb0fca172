"""Membership dynamics substrate (system S8 in DESIGN.md).

Gossip-style failure detection (ref [13]) and scripted and random
churn schedules.
"""

from repro.membership.churn import (
    EVENT_CRASH,
    EVENT_JOIN,
    EVENT_LEAVE,
    ChurnEvent,
    ChurnSchedule,
    random_churn,
)
from repro.membership.failure_detector import (
    GossipFailureDetector,
    HeartbeatGossip,
    attach_failure_detectors,
)

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "EVENT_CRASH",
    "EVENT_JOIN",
    "EVENT_LEAVE",
    "GossipFailureDetector",
    "HeartbeatGossip",
    "attach_failure_detectors",
    "random_churn",
]
