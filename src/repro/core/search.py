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

:class:`SearchCoordinator` holds a member's active searches; the member
forwards protocol messages into it and supplies side effects through
the narrow :class:`SearchHost` protocol.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple

from repro.protocol.messages import SearchRequest, Seq
from repro.sim import Simulator, Timer, TraceLog, pick_other


class SearchHost(Protocol):
    """What the search coordinator may ask of its hosting member."""

    node_id: int
    sim: Simulator
    trace: TraceLog

    def region_peers(self) -> Tuple[Sequence[int], int]:
        """The host's region (a shared sequence, host included) and
        the host's position in it."""
        ...

    def send_search_request(self, dst: int, request: SearchRequest) -> None:
        """Forward a search hop to *dst*."""
        ...

    def rtt_to(self, dst: int) -> float:
        """Round-trip estimate to *dst* (drives the retry timer)."""
        ...

    def search_rng(self) -> random.Random:
        """Deterministic RNG substream for target selection (asked for
        at construction, maybe never drawn from: hand out a lazy one)."""
        ...


class _SearchProcess:
    """One member's participation in the search for one message."""

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
        self._timer = Timer(coordinator.host.sim, self._on_timeout)
        self._stopped = False

    def run_round(self) -> None:
        """Forward the request to a fresh random member and arm the timer."""
        if self._stopped:
            return
        host = self.coordinator.host
        members, position = host.region_peers()
        if len(members) < 2:
            # Nobody to ask: the search idles; a later regional event
            # (repair arrival) resolves the waiters instead.
            return
        limit = self.coordinator.max_rounds
        if limit is not None and self.rounds >= limit:
            rounds = self.rounds
            self.coordinator._given_up.add(self.seq)
            self.coordinator._finish(self.seq)
            host.trace.emit(host.sim.now, "search_abandoned",
                            node=host.node_id, seq=self.seq, rounds=rounds)
            return
        self.rounds += 1
        target = pick_other(self.coordinator.rng, members, position)
        request = SearchRequest(
            seq=self.seq, waiters=tuple(sorted(self.waiters)), forwarder=host.node_id
        )
        host.trace.emit(host.sim.now, "search_forwarded",
                        node=host.node_id, seq=self.seq, target=target, round=self.rounds)
        host.send_search_request(target, request)
        self._timer.start(host.rtt_to(target) * self.coordinator.timer_factor)

    def stop(self) -> None:
        """Terminate this member's participation."""
        self._stopped = True
        self._timer.cancel()

    def _on_timeout(self) -> None:
        self.run_round()


class SearchCoordinator:
    """Manages all active bufferer searches at one member."""

    def __init__(
        self,
        host: SearchHost,
        timer_factor: float = 1.0,
        max_rounds: Optional[int] = None,
    ) -> None:
        self.host = host
        self.timer_factor = timer_factor
        self.max_rounds = max_rounds
        self.rng = host.search_rng()
        self._active: Dict[Seq, _SearchProcess] = {}
        #: Messages whose search this member already abandoned after
        #: ``max_rounds`` rounds.  Without this memory, two members that
        #: both discarded a vanished message re-seed each other's search
        #: forever: A's request makes B join, B's request makes A rejoin
        #: right after A abandoned — a collective livelock the per-process
        #: round limit cannot see (found by ``validate fuzz``).  Only
        #: populated when ``max_rounds`` is finite, so the default
        #: unbounded configuration behaves exactly as before.
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
            process.waiters.update(waiters)
            return
        if seq in self._given_up:
            # This member already searched to its round limit and gave
            # up; re-joining on a peer's request would defeat the limit.
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
