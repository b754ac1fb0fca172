"""Membership dynamics substrate (system S8 in DESIGN.md).

Gossip-style failure detection (ref [13]) and scripted and random
churn schedules.
"""
