"""Per-loss recovery processes: local and remote phases (paper §2.2).

When a member detects a missing message it starts one
:class:`RecoveryProcess`, which runs the two phases *concurrently*
("the receiver does not know how many members in its region missed the
same message"):

* **Local recovery** — each round, ask one uniformly-random region
  neighbour and arm a timer equal to the round-trip time to it; on
  expiry, ask another.  As long as at least one region member holds
  the message, the pull-epidemic converges.  A round is one host call,
  :meth:`RecoveryHost.ask_region_peer`, that draws the neighbour, sends
  the request and prices the round-trip: when nobody holds a copy,
  almost every request of a run is one of these, and finds nothing.
* **Remote recovery** — each round, choose a uniformly-random member
  *r* of the *parent region*; send it a request only with probability
  λ/n (so the region-wide expected number of remote requests per round
  is λ), but arm the round-trip timer to *r* regardless, keeping every
  missing member's remote phase cycling in lock-step with the region's
  aggregate request stream.

The process ends when the member receives the message (any path), or —
if ``max_recovery_time`` is configured — gives up and records a
reliability violation (the §5 trade-off).

Requests are frozen and the same every round, so a process builds its
one :class:`LocalRequest` up front and its one :class:`RemoteRequest`
at the first remote send (a root region never sends one), and each
round resends that object.
"""

from __future__ import annotations

import random
from typing import Optional, Protocol, Sequence, Tuple

from repro.protocol.config import PolicySpec
from repro.protocol.messages import LocalRequest, RemoteRequest, Seq
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.tracing import TraceLog


class RecoveryHost(Protocol):
    """What a recovery process may ask of its hosting member; its
    ``config`` is the group's :class:`~repro.protocol.config.PolicySpec`."""

    node_id: int
    sim: Simulator
    trace: TraceLog
    config: PolicySpec

    def parent_member_ids(self) -> Sequence[int]:
        """Members of the current parent region (a shared sequence;
        empty if the host has none)."""
        ...

    def has_parent_region(self) -> bool:
        """Whether a parent region structurally exists (even if empty).

        Root regions never gain a parent, so their remote phase can
        stay silent; a *currently empty* parent region may refill
        under churn and is worth re-probing.
        """
        ...

    def region_size(self) -> int:
        """Current size of the host's region (the *n* in λ/n)."""
        ...

    def ask_region_peer(self, rng: random.Random,
                        request: LocalRequest) -> Optional[Tuple[int, float]]:
        """Send *request* to one uniformly random other member of the
        host's region, drawn once from *rng* (as
        :func:`~repro.sim.randomness.pick_other`), and return that peer
        and the round-trip to it; ``None`` when the host is alone."""
        ...

    def send_remote_request(self, dst: int, request: RemoteRequest) -> None:
        """Transmit a remote retransmission request."""
        ...

    def rtt_to(self, dst: int) -> float:
        """Round-trip estimate to *dst* (drives retry timers)."""
        ...

    def recovery_rng(self) -> random.Random:
        """Deterministic RNG substream for target selection."""
        ...


class RecoveryProcess:
    """Recovery of one missing message at one member."""

    def __init__(self, host: RecoveryHost, seq: Seq, detected_at: float) -> None:
        self.host = host
        self.seq = seq
        self.detected_at = detected_at
        self.local_rounds = 0
        self.remote_rounds = 0
        self.remote_requests_sent = 0
        self.completed = False
        self.failed = False
        #: Abandoned without the message arriving (member shutdown).
        #: Distinct from ``completed`` so metrics never count a
        #: shutdown-cancelled recovery as a successful completion.
        self.cancelled = False
        self._rng = host.recovery_rng()
        config = host.config  # frozen: read once
        self._limit = config.max_recovery_time
        self._timer_factor = config.timer_factor
        self._local_request = LocalRequest(seq=seq, requester=host.node_id)
        self._remote_request: Optional[RemoteRequest] = None
        # A round is only ever armed by the start or by the round's own
        # firing, so each phase is one plain event, never pushed back.
        self._local_event: Optional[Event] = None
        self._remote_event: Optional[Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Kick off both phases concurrently (§2.2)."""
        self._local_round()
        self._remote_round()

    @property
    def active(self) -> bool:
        """Whether this recovery is still running."""
        return not (self.completed or self.failed or self.cancelled)

    def complete(self, now: float) -> None:
        """The message arrived: stop both phases and record latency."""
        if not self.active:
            return
        self.completed = True
        self._stop_rounds()
        self.host.trace.emit(
            now,
            "recovery_completed",
            node=self.host.node_id,
            seq=self.seq,
            latency=now - self.detected_at,
            local_rounds=self.local_rounds,
            remote_rounds=self.remote_rounds,
            remote_requests=self.remote_requests_sent,
        )

    def cancel(self) -> None:
        """Abandon silently (member shutdown)."""
        self._stop_rounds()
        self.cancelled = True

    def _fail(self) -> None:
        self.failed = True
        self._stop_rounds()
        self.host.trace.emit(
            self.host.sim.now,
            "reliability_violation",
            node=self.host.node_id,
            seq=self.seq,
            waited=self.host.sim.now - self.detected_at,
        )

    def _stop_rounds(self) -> None:
        for event in (self._local_event, self._remote_event):
            if event is not None:
                event.cancel()
        self._local_event = self._remote_event = None

    def _idle_retry_delay(self) -> float:
        """Back-off before re-checking a phase that has no peers *now*.

        Churn can hand a lonely member neighbours (or refill an emptied
        parent region) at any time; a silent phase would never notice.
        The idle threshold is the natural probe period — it is the
        time scale at which buffered state changes hands.
        """
        return self.host.config.idle_threshold * self._timer_factor

    # ------------------------------------------------------------------
    # Local phase
    # ------------------------------------------------------------------
    def _local_round(self) -> None:
        if self.completed or self.failed or self.cancelled:
            return
        host = self.host
        limit = self._limit
        if limit is not None and host.sim.now - self.detected_at >= limit:
            self._fail()
            return
        asked = host.ask_region_peer(self._rng, self._local_request)
        if asked is None:
            # Alone in the region right now: nobody to ask, but churn
            # may add neighbours, so keep the phase alive instead of
            # going silent forever (no request is sent, no round is
            # counted — this is a probe, not a recovery round).
            delay = self._idle_retry_delay()
        else:
            self.local_rounds += 1
            delay = asked[1] * self._timer_factor
        sim = host.sim
        self._local_event = sim.at(sim.now + delay, self._local_round)

    # ------------------------------------------------------------------
    # Remote phase
    # ------------------------------------------------------------------
    def _remote_round(self) -> None:
        if self.completed or self.failed or self.cancelled:
            return
        host = self.host
        limit = self._limit
        if limit is not None and host.sim.now - self.detected_at >= limit:
            self._fail()
            return
        parents = host.parent_member_ids()
        if parents:
            self.remote_rounds += 1
            # Choose r first; the round tracks r whether or not the
            # probabilistic send happens (§2.2).
            target = self._rng.choice(parents)
            region_size = max(1, host.region_size())
            probability = min(1.0, host.config.remote_lambda / region_size)
            if self._rng.random() < probability:
                self.remote_requests_sent += 1
                request = self._remote_request
                if request is None:
                    request = self._remote_request = RemoteRequest(
                        seq=self.seq, requester=host.node_id)
                host.send_remote_request(target, request)
            delay = host.rtt_to(target) * self._timer_factor
        elif host.has_parent_region():
            # A parent region that exists but is *currently empty* may
            # refill under churn: probe rather than abandon the phase.
            delay = self._idle_retry_delay()
        else:
            # §2.2: "If a receiver has no parent region, its remote
            # recovery phase does nothing."  Structural for a root
            # region (regions never gain a parent), so stay silent.
            return
        sim = host.sim
        self._remote_event = sim.at(sim.now + delay, self._remote_round)
