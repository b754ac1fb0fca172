"""Ablation — randomized search vs multicast-the-request (§3.3).

The paper rejects the obvious alternative to searching: multicast the
remote request in the region and let bufferers reply with a randomized
back-off.  "Because of randomization, it is possible that a message has
become idle and been discarded at one member but is still being
buffered at many other members … If a multicast request is sent in this
case, the back-off period will be too short to suppress duplicate
responses effectively" — a reply storm.

We model the alternative exactly as described: the back-off window is
sized for the *expected idle-state* population (C bufferers), i.e.
``W = C · RTT``; each of the *actual* bufferers draws a uniform delay
in [0, W] and multicasts its reply unless it hears another reply first
(one one-way latency of warning).  When the true bufferer population is
much larger than C — the message not yet idle everywhere — duplicate
replies blow up, while RRMP's randomized search always yields exactly
one "I have the message" reply.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence, Tuple

from repro.experiments.base import run_sweep
from repro.metrics.report import SeriesTable
from repro.metrics.stats import mean
from repro.scenario.library import search_spec


def simulate_multicast_replies(
    n: int,
    actual_bufferers: int,
    backoff_c: float = 6.0,
    rtt: float = 10.0,
    rng: random.Random = random.Random(0),
) -> Tuple[int, float]:
    """One multicast-search round: (#replies multicast, first-reply time).

    The request is multicast at t = 0 and reaches every member one
    one-way latency later.  Each bufferer draws a back-off delay
    uniform in ``[0, C · RTT]``; a bufferer suppresses its reply iff
    another reply's multicast could reach it before its own timer
    fires (one one-way latency after the earliest reply).
    """
    one_way = rtt / 2.0
    window = backoff_c * rtt
    if actual_bufferers <= 0:
        return (0, float("inf"))
    delays = sorted(rng.uniform(0.0, window) for _ in range(actual_bufferers))
    earliest = delays[0]
    replies = sum(1 for delay in delays if delay < earliest + one_way)
    return (replies, one_way + earliest)


def trial_storm(params: Dict[str, object], seed: int) -> Dict[str, float]:
    """Runner trial: one multicast-request round plus one randomized search."""
    n = int(params["n"])
    bufferers = int(params["bufferers"])
    rng = random.Random((seed << 16) ^ 0x5EED)
    replies, first = simulate_multicast_replies(
        n, bufferers, backoff_c=float(params["backoff_c"]), rng=rng
    )
    result = search_spec(n, bufferers, seed=seed).run()
    # Search traffic: forwarded hops + the single HaveReply
    # regional multicast (counted as 1 logical message).
    return {
        "replies": float(replies),
        "first_reply_ms": first,
        "search_messages": float(result.simulation.trace.count("search_forwarded") + 1),
        "search_time_ms": result.search_time or 0.0,
    }


def run_search_vs_multicast(
    buffering_fractions: Sequence[float] = (0.06, 0.1, 0.25, 0.5, 1.0),
    n: int = 100,
    seeds: int = 100,
    backoff_c: float = 6.0,
) -> SeriesTable:
    """Compare duplicate replies and latency across the two mechanisms.

    ``buffering_fractions`` is the fraction of the region still holding
    the message when the request arrives; 0.06 ≈ the intended idle
    steady state (C = 6 of 100), 1.0 = the message just arrived and
    *everyone* still buffers it (the §3.3 storm case).
    """
    table = SeriesTable(
        title=(
            f"Ablation — randomized search vs multicast request; n={n}, "
            f"back-off window C·RTT with C={backoff_c:g}, {seeds} seeds"
        ),
        x_label="buffering fraction",
        xs=list(buffering_fractions),
    )
    grid = [
        {"n": n, "bufferers": max(1, round(fraction * n)), "backoff_c": backoff_c}
        for fraction in buffering_fractions
    ]
    per_point = run_sweep("ablation_search_vs_multicast", trial_storm, grid, seeds)
    multicast_replies, multicast_latency = [], []
    search_messages, search_latency = [], []
    for runs in per_point:
        multicast_replies.append(mean([run["replies"] for run in runs]))
        multicast_latency.append(mean([run["first_reply_ms"] for run in runs]))
        search_messages.append(mean([run["search_messages"] for run in runs]))
        search_latency.append(mean([run["search_time_ms"] for run in runs]))
    table.add_series("multicast: duplicate replies", multicast_replies)
    table.add_series("multicast: first-reply time (ms)", multicast_latency)
    table.add_series("search: messages", search_messages)
    table.add_series("search: time (ms)", search_latency)
    table.notes.append(
        "paper: multicast replies implode when the message is not yet idle everywhere;"
        " randomized search always produces exactly one reply"
    )
    return table
