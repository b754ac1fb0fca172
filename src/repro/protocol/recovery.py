"""Per-loss recovery processes: local and remote phases (paper §2.2).

When a member detects a missing message it starts one
:class:`RecoveryProcess`, which runs the two phases *concurrently*
("the receiver does not know how many members in its region missed the
same message"):

* **Local recovery** — each round, ask one uniformly-random region
  neighbour and arm a timer equal to the round-trip time to it; on
  expiry, ask another.  As long as at least one region member holds
  the message, the pull-epidemic converges.
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
one :class:`LocalRequest` and one :class:`RemoteRequest` up front and
each round resends that object.
"""

from __future__ import annotations

import random
from typing import Protocol, Sequence, Tuple

from repro.protocol.config import RrmpConfig
from repro.protocol.messages import LocalRequest, RemoteRequest, Seq
from repro.sim import Simulator, Timer, TraceLog, pick_other


class RecoveryHost(Protocol):
    """What a recovery process may ask of its hosting member."""

    node_id: int
    sim: Simulator
    trace: TraceLog
    config: RrmpConfig

    def region_peers(self) -> Tuple[Sequence[int], int]:
        """The host's region (a shared sequence, host included) and
        the host's position in it."""
        ...

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

    def send_local_request(self, dst: int, request: LocalRequest) -> None:
        """Transmit a local retransmission request."""
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
        self._remote_request = RemoteRequest(seq=seq, requester=host.node_id)
        self._local_timer = Timer(host.sim, self._local_round)
        self._remote_timer = Timer(host.sim, self._remote_round)

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
        """The message arrived: stop all timers and record latency."""
        if not self.active:
            return
        self.completed = True
        self._stop_timers()
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
        self._stop_timers()
        self.cancelled = True

    def _fail(self) -> None:
        self.failed = True
        self._stop_timers()
        self.host.trace.emit(
            self.host.sim.now,
            "reliability_violation",
            node=self.host.node_id,
            seq=self.seq,
            waited=self.host.sim.now - self.detected_at,
        )

    def _stop_timers(self) -> None:
        self._local_timer.cancel()
        self._remote_timer.cancel()

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
        members, position = host.region_peers()
        if len(members) < 2:
            # Alone in the region right now: nobody to ask, but churn
            # may add neighbours, so keep the phase alive instead of
            # going silent forever (no request is sent, no round is
            # counted — this is a probe, not a recovery round).
            self._local_timer.start(self._idle_retry_delay())
            return
        self.local_rounds += 1
        target = pick_other(self._rng, members, position)
        host.send_local_request(target, self._local_request)
        self._local_timer.start(host.rtt_to(target) * self._timer_factor)

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
        if not parents:
            # §2.2: "If a receiver has no parent region, its remote
            # recovery phase does nothing."  That is structural for a
            # root region (regions never gain a parent), so stay
            # silent there; a parent region that exists but is
            # *currently empty* may refill under churn, so re-arm a
            # probe timer rather than abandoning the phase.
            if host.has_parent_region():
                self._remote_timer.start(self._idle_retry_delay())
            return
        self.remote_rounds += 1
        # Choose r first; the timer tracks r whether or not the
        # probabilistic send happens (§2.2).
        target = self._rng.choice(parents)
        region_size = max(1, host.region_size())
        probability = min(1.0, host.config.remote_lambda / region_size)
        if self._rng.random() < probability:
            self.remote_requests_sent += 1
            host.send_remote_request(target, self._remote_request)
        self._remote_timer.start(host.rtt_to(target) * self._timer_factor)
