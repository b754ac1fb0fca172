"""Randomized search for bufferers (paper §3.3).

When a member receives a remote request for a message it has already
discarded, it cannot answer — but *some* region member probably still
buffers the message (≈C long-term bufferers in expectation).  Rather
than multicasting the request — which the paper shows can trigger a
storm of replies when the message has not yet gone idle everywhere —
the member conducts a randomized search:

* forward the request to one uniformly-random region member, arm a
  timer equal to the round-trip time to it;
* a contacted member that still buffers the message unicasts the repair
  to the downstream requester(s) and regionally multicasts "I have the
  message", terminating every search for that message;
* a contacted member that also discarded the message *joins* the
  search, so the number of active searchers grows over time;
* a contacted member that never received the message records the
  waiters and starts its own loss recovery (footnote 4);
* on timeout, each searcher re-forwards to a fresh random member.

A round is one host call, :meth:`SearchHost.ask_region_peer`, that
draws the member, forwards the frozen request and prices the
round-trip; the round then traces the hop it already sent.

:class:`SearchCoordinator` holds a member's active searches; the member
forwards protocol messages into it and supplies side effects through
the narrow :class:`SearchHost` protocol.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

from repro.protocol.messages import SearchRequest, Seq
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.sim.tracing import TraceLog


class SearchHost(Protocol):
    """What the search coordinator may ask of its hosting member."""

    node_id: int
    sim: Simulator
    trace: TraceLog

    def region_size(self) -> int:
        """Current size of the host's region."""
        ...

    def ask_region_peer(self, rng: random.Random,
                        request: SearchRequest) -> Optional[Tuple[int, float]]:
        """Forward a search hop to one uniformly random other member of
        the host's region, drawn once from *rng*, and return that peer
        and the round-trip to it (the retry timer); ``None`` when the
        host is alone."""
        ...

    def search_rng(self) -> random.Random:
        """Deterministic RNG substream for target selection (asked for
        when the coordinator is built, maybe never drawn from: hand out
        a lazy one)."""
        ...


class _SearchProcess:
    """One member's participation in the search for one message.

    A request is frozen and the same every round while the waiter set
    is, so the process keeps the one it last sent and resends that
    object; :meth:`SearchCoordinator.begin` drops it when a merge adds
    a waiter.
    """

    def __init__(
        self,
        coordinator: "SearchCoordinator",
        seq: Seq,
        waiters: Set[int],
    ) -> None:
        self.coordinator = coordinator
        self.seq = seq
        self.waiters = set(waiters)
        self.rounds = 0
        self.started_at = coordinator.host.sim.now
        self.request: Optional[SearchRequest] = None
        #: The round clock, dropped by :meth:`stop`: it holds this
        #: process's bound method, and a finished search must die by
        #: reference count (a run makes no reference cycles).
        self._timer: Optional[Timer] = Timer(coordinator.host.sim, self._on_timeout)

    def run_round(self) -> None:
        """Forward the request to a fresh random member and arm the timer."""
        coordinator = self.coordinator
        host = coordinator.host
        limit = coordinator.max_rounds
        max_time = coordinator.max_time
        if ((limit is not None and self.rounds >= limit)
                or (max_time is not None and host.sim.now - self.started_at >= max_time)):
            if host.region_size() < 2:
                return  # alone: idle, as below, rather than give up
            rounds = self.rounds
            coordinator._given_up.add(self.seq)
            coordinator._finish(self.seq)
            host.trace.emit(host.sim.now, "search_abandoned",
                            node=host.node_id, seq=self.seq, rounds=rounds)
            return
        request = self.request
        if request is None:
            request = self.request = SearchRequest(
                seq=self.seq, waiters=tuple(sorted(self.waiters)), forwarder=host.node_id
            )
        asked = host.ask_region_peer(coordinator.rng, request)
        if asked is None:
            # Nobody to ask: the search idles; a later regional event
            # (repair arrival) resolves the waiters instead.
            return
        self.rounds += 1
        target, rtt = asked
        host.trace.emit(host.sim.now, "search_forwarded",
                        node=host.node_id, seq=self.seq, target=target, round=self.rounds)
        self._timer.start(rtt * coordinator.timer_factor)

    def stop(self) -> None:
        """Terminate this member's participation: a cancelled timer
        never fires, so no further round runs.  Idempotent."""
        timer = self._timer
        if timer is not None:
            timer.cancel()
            self._timer = None

    def _on_timeout(self) -> None:
        self.run_round()


class SearchCoordinator:
    """Manages all active bufferer searches at one member."""

    def __init__(
        self,
        host: SearchHost,
        timer_factor: float = 1.0,
        max_rounds: Optional[int] = None,
        max_time: Optional[float] = None,
    ) -> None:
        self.host = host
        self.timer_factor = timer_factor
        self.max_rounds = max_rounds
        #: Abandon a search this member joined this many ms ago, as one
        #: past ``max_rounds``: where nobody buffers the message any more,
        #: the searchers recruit each other for ever.
        self.max_time = max_time
        self.rng = host.search_rng()
        self._active: Dict[Seq, _SearchProcess] = {}
        #: Messages whose search this member already abandoned after
        #: ``max_rounds`` rounds or ``max_time`` ms.  Without this memory,
        #: two members that both discarded a vanished message re-seed each
        #: other's search forever: A's request makes B join, B's request
        #: makes A rejoin right after A abandoned — a collective livelock
        #: the per-process bound cannot see (found by ``validate fuzz``).
        #: Populated only when one of the two bounds is set.
        self._given_up: Set[Seq] = set()

    # ------------------------------------------------------------------
    # Entry points called by the member
    # ------------------------------------------------------------------
    def begin(self, seq: Seq, waiters: Sequence[int]) -> None:
        """Start (or extend) the search for *seq* on behalf of *waiters*.

        Idempotent per message: if the member is already searching, the
        new waiters are merged and the current round keeps running.
        """
        process = self._active.get(seq)
        if process is not None:
            if not process.waiters.issuperset(waiters):
                process.waiters.update(waiters)
                process.request = None
            return
        if seq in self._given_up:
            # This member already searched to its bound and gave up;
            # re-joining on a peer's request would defeat the bound.
            return
        process = _SearchProcess(self, seq, set(waiters))
        self._active[seq] = process
        self.host.trace.emit(
            self.host.sim.now,
            "search_joined",
            node=self.host.node_id,
            seq=seq,
            waiters=tuple(sorted(process.waiters)),
        )
        process.run_round()

    def on_have_reply(self, seq: Seq) -> None:
        """A bufferer announced itself: stop searching for *seq*."""
        self._finish(seq)

    def resolve(self, seq: Seq) -> Tuple[int, ...]:
        """The member itself obtained the message for *seq*.

        Stops the search and returns the waiters that still need the
        repair (the member serves them directly).
        """
        # Receiving the message resets the give-up memory: if the member
        # buffers and later re-discards it, a fresh search is legitimate
        # because the regional buffer state has genuinely changed.
        self._given_up.discard(seq)
        process = self._active.get(seq)
        if process is None:
            return ()
        waiters = tuple(sorted(process.waiters))
        self._finish(seq)
        return waiters

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_searching(self, seq: Seq) -> bool:
        """Whether a search for *seq* is active at this member."""
        return seq in self._active

    def waiters_for(self, seq: Seq) -> Set[int]:
        """Downstream waiters attached to the active search for *seq*."""
        process = self._active.get(seq)
        return set(process.waiters) if process is not None else set()

    def active_seqs(self) -> List[Seq]:
        """Messages this member is currently searching for."""
        return list(self._active.keys())

    def close(self) -> None:
        """Cancel all searches (member shutdown)."""
        for seq in list(self._active.keys()):
            self._finish(seq)

    def _finish(self, seq: Seq) -> None:
        process = self._active.pop(seq, None)
        if process is not None:
            process.stop()
