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

This module holds the decision logic and the optional eventual-discard
TTL; :class:`repro.core.manager.TwoPhaseBufferPolicy` wires it to the
buffer.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from repro.protocol.messages import Seq
from repro.sim import Simulator, Timer


def long_term_probability(expected_bufferers: float, region_size: int) -> float:
    """The per-member keep probability ``P = C/n``, clamped to [0, 1].

    For regions smaller than C every member keeps the message (P = 1);
    an empty or single-member region degenerates to P = min(1, C).
    """
    if expected_bufferers < 0:
        raise ValueError(f"expected_bufferers must be >= 0, got {expected_bufferers!r}")
    if region_size <= 0:
        return 0.0
    return min(1.0, expected_bufferers / region_size)


class RandomizedLongTermSelector:
    """Makes the §3.2 coin flip and manages long-term TTLs.

    Parameters
    ----------
    sim:
        Event engine.
    rng:
        Dedicated RNG substream for the coin flips.
    expected_bufferers:
        ``C``; 0 disables long-term buffering (every idle message is
        discarded).
    ttl:
        Optional eventual discard: a long-term entry unused for *ttl*
        milliseconds is dropped via *on_expire* (§3.2's "eventually even
        a long-term bufferer may decide to discard an idle message").
    on_expire:
        Callback invoked with the sequence number when a TTL fires.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        expected_bufferers: float,
        ttl: Optional[float] = None,
        on_expire: Optional[Callable[[Seq], None]] = None,
    ) -> None:
        if expected_bufferers < 0:
            raise ValueError(f"expected_bufferers must be >= 0, got {expected_bufferers!r}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be > 0 or None, got {ttl!r}")
        self.sim = sim
        self.rng = rng
        self.expected_bufferers = expected_bufferers
        self.ttl = ttl
        self._on_expire = on_expire
        self._ttl_timers: Dict[Seq, Timer] = {}

    def decide(self, region_size: int) -> bool:
        """Coin flip: should this member keep the idle message?"""
        probability = long_term_probability(self.expected_bufferers, region_size)
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.rng.random() < probability

    # ------------------------------------------------------------------
    # TTL management
    # ------------------------------------------------------------------
    def arm_ttl(self, seq: Seq) -> None:
        """Start (or restart) the unused-entry TTL for *seq*."""
        if self.ttl is None:
            return
        timer = self._ttl_timers.get(seq)
        if timer is None:
            timer = Timer(self.sim, self._expire, seq)
            self._ttl_timers[seq] = timer
        timer.start(self.ttl)

    def touch(self, seq: Seq) -> None:
        """The entry was used (request served): push its TTL back."""
        if seq in self._ttl_timers:
            self.arm_ttl(seq)

    def disarm(self, seq: Seq) -> None:
        """Cancel the TTL for *seq* (entry handed off or discarded)."""
        timer = self._ttl_timers.pop(seq, None)
        if timer is not None:
            timer.cancel()

    def close(self) -> None:
        """Cancel all TTL timers (member shutdown)."""
        for timer in self._ttl_timers.values():
            timer.cancel()
        self._ttl_timers.clear()

    def _expire(self, seq: Seq) -> None:
        self._ttl_timers.pop(seq, None)
        if self._on_expire is not None:
            self._on_expire(seq)
