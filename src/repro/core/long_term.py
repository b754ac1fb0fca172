"""Randomized long-term buffering (paper §3.2).

When a message goes idle, each member *independently* keeps it with
probability ``P = C/n`` (n = region size).  The number of long-term
bufferers in the region is then Binomial(n, C/n) — approximately
Poisson(C) for large n — so the expected count is the constant ``C``
regardless of region size, and the probability that *nobody* keeps the
message is ≈ ``e^{-C}`` (0.25 % at C = 6, the paper's example).

Because the sender streams many messages and every idle message gets an
independent coin flip at every member, the long-term buffering load
spreads evenly across the region instead of concentrating on a repair
server — the load-balancing claim of the paper's conclusion.

This module holds the coin; :class:`repro.core.manager.TwoPhaseBufferPolicy`
flips it when a copy goes idle and owns the optional eventual-discard
TTL.
"""

from __future__ import annotations

import random
from typing import Optional


def long_term_probability(expected_bufferers: float, region_size: int) -> float:
    """The per-member keep probability ``P = C/n``, clamped to [0, 1].

    For regions smaller than C every member keeps the message (P = 1);
    a single-member region gives P = min(1, C) and an empty one 0.0.
    """
    if expected_bufferers < 0:
        raise ValueError(f"expected_bufferers must be >= 0, got {expected_bufferers!r}")
    if region_size <= 0:
        return 0.0
    return min(1.0, expected_bufferers / region_size)


def keeps_long_term(
    rng: Optional[random.Random], expected_bufferers: float, region_size: int
) -> bool:
    """The §3.2 coin: does this member keep an idle message?

    Draws from *rng* only when the outcome is uncertain (0 < P < 1), so
    *rng* may be ``None`` where it is certain.  P is
    :func:`long_term_probability`, computed inline: every idle copy
    flips this coin.
    """
    if expected_bufferers < 0:
        raise ValueError(f"expected_bufferers must be >= 0, got {expected_bufferers!r}")
    if region_size <= 0:
        return False
    probability = expected_bufferers / region_size
    if probability <= 0.0:
        return False
    if probability < 1.0:
        return rng.random() < probability
    return True
