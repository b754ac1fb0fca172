"""Deterministic hash-based bufferer selection (system S5; ref [11]).

The authors' earlier NGC'99 scheme, reproduced as the §3.4 comparison
baseline: hash-selected bufferers, requester-side direct lookup, no
search traffic, O(n) hash computation, and no story for churn handoff.
"""
