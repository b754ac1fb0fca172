"""Canned experiment scenarios reproducing the paper's §4 setups.

Two families:

* :func:`run_initial_holders` — the Figure 6/7 workload: a single
  region of *n* members, *k* of which hold a fresh message; everyone
  else detects the loss simultaneously at t = 0 and local recovery +
  feedback-based buffering play out.
* :func:`run_search` — the Figure 8/9 workload: a region where every
  member has received (and all but *b* have discarded) a message, and a
  downstream member's remote request must find one of the *b*
  bufferers via the §3.3 randomized search.

Each workload is now a declarative
:class:`~repro.scenario.spec.ScenarioSpec` (built by the factories in
:mod:`repro.scenario.library`, where the same specs are registered as
the named scenarios ``initial_holders``/``search``/``scale``); the
``run_*`` helpers here materialize the spec and wrap the run in a
small result object carrying the measurements the figures plot, so
experiments and tests share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.buffer import DISCARD_IDLE
from repro.net.topology import NodeId
from repro.protocol.messages import DataMessage
from repro.protocol.rrmp import RrmpSimulation


@dataclass
class InitialHoldersResult:
    """Outcome of the Figure 6/7 scenario."""

    simulation: RrmpSimulation
    data: DataMessage
    holders: List[NodeId]

    def holder_buffering_durations(self) -> List[float]:
        """Short-term buffering time of each initial holder (receipt →
        idle-discard), the quantity Figure 6 averages.

        Holders still buffering (e.g. promoted to long-term) are
        excluded; run the scenario with ``long_term_c = 0`` — as §4
        does implicitly — to measure every holder.
        """
        durations: List[float] = []
        for node in self.holders:
            member = self.simulation.members[node]
            durations.extend(member.policy.buffer.durations(reason=DISCARD_IDLE))
        return durations

    def all_recovered(self) -> bool:
        """Whether every member eventually received the message."""
        return self.simulation.all_received(self.data.seq)


def run_initial_holders(
    n: int,
    k: int,
    seed: int = 0,
    idle_threshold: float = 40.0,
    long_term_c: float = 0.0,
    rtt: float = 10.0,
    run_for: Optional[float] = None,
    max_recovery_time: Optional[float] = 2_000.0,
) -> InitialHoldersResult:
    """Run the §4 feedback-buffering scenario (Figures 6 and 7).

    Parameters mirror the paper: region of *n* members (100 in §4),
    round-trip time *rtt* between any two members (10 ms), idle
    threshold 40 ms, *k* members drawn uniformly to hold the message
    initially.  All other members detect the loss at t = 0 and start
    local recovery.  ``long_term_c`` defaults to 0 so the measurement
    isolates the short-term (feedback) phase.

    ``max_recovery_time`` bounds the run: with ``long_term_c = 0`` the
    message can (rarely) vanish from every buffer while a receiver
    still misses it — the §3.2 "unlucky receiver" case that long-term
    buffering exists to fix.  Such a receiver gives up after this
    deadline and a ``reliability_violation`` is recorded (§5).
    """
    from repro.scenario.library import initial_holders_spec

    spec = initial_holders_spec(
        n, k, seed=seed, idle_threshold=idle_threshold,
        long_term_c=long_term_c, rtt=rtt, run_for=run_for,
        max_recovery_time=max_recovery_time,
    )
    # With long_term_c == 0 and sessions off, draining terminates once
    # recovery finishes and every idle timer fires.
    built = spec.run()
    assert built.data is not None
    return InitialHoldersResult(
        simulation=built.simulation, data=built.data, holders=built.holders
    )


@dataclass
class SearchResult:
    """Outcome of the Figure 8/9 scenario."""

    simulation: RrmpSimulation
    data: DataMessage
    bufferers: List[NodeId]
    requester: NodeId
    request_arrival: Optional[float]
    served_at: Optional[float]
    served_via: Optional[str]

    @property
    def search_time(self) -> Optional[float]:
        """Request arrival in the region → a bufferer serves the repair.

        0 when the request lands directly on a bufferer (footnote 5);
        ``None`` if unserved within the simulated horizon.
        """
        if self.request_arrival is None or self.served_at is None:
            return None
        return self.served_at - self.request_arrival

    @property
    def search_forwards(self) -> int:
        """Number of search hops taken (network traffic of the search)."""
        return self.simulation.trace.count("search_forwarded")


def run_search(
    n: int,
    bufferers: int,
    seed: int = 0,
    intra_one_way: float = 5.0,
    inter_one_way: float = 500.0,
    horizon: float = 2_000.0,
) -> SearchResult:
    """Run the §4 bufferer-search scenario (Figures 8 and 9).

    A region of *n* members has all received message 1; exactly
    *bufferers* of them still hold it (as long-term bufferers).  A
    single downstream member in a child region misses the message and
    sends a remote request to a uniformly-random upstream member
    (λ = 1 with a one-member region makes that probability exactly 1 —
    the same mechanism §2.2 specifies).  The measured search time is
    the interval from the request's arrival in the region until a
    bufferer sends the repair.

    ``inter_one_way`` is set high so the requester's retry timer
    (2 × 500 ms) cannot fire a second request inside the measurement
    window, matching the paper's single-request setup.
    """
    from repro.scenario.library import search_spec

    spec = search_spec(
        n, bufferers, seed=seed, intra_one_way=intra_one_way,
        inter_one_way=inter_one_way, horizon=horizon,
    )
    # The downstream member detects the loss at t = 0; its remote phase
    # fires the single remote request into the region.
    built = spec.run()
    simulation = built.simulation
    assert built.data is not None and built.requester is not None

    arrival = simulation.trace.first("remote_request_received")
    served = None
    for record in simulation.trace.of_kind("remote_request_served"):
        served = record
        break
    return SearchResult(
        simulation=simulation,
        data=built.data,
        bufferers=built.bufferers,
        requester=built.requester,
        request_arrival=arrival.time if arrival is not None else None,
        served_at=served.time if served is not None else None,
        served_via=served.get("via") if served is not None else None,
    )
