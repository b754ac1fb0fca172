"""Congestion controllers: the control laws behind the adaptive sender.

A controller is a pure, deterministic state machine — no clock, no
network, no randomness.  The :class:`~repro.cc.driver.CongestionDriver`
feeds it events (sends, receiver feedback reports, observed NACKs) and
asks it two questions: *when may the next message go out*
(:meth:`CongestionController.send_credit`) and *how much proactive FEC
parity should a block carry* (:meth:`CongestionController.parity_budget`).
Determinism makes the control laws unit-testable from synthetic feedback
traces alone.

Rates are expressed in messages per second (the human-facing unit of
:class:`~repro.protocol.config.CongestionSpec`); the simulator clock
is milliseconds, so the inter-send credit is ``1000 / rate`` ms.

The adaptive controllers evaluate once per feedback window (the
config's ``feedback_interval``): per-receiver reports accumulate into
the window, and the first event past its end closes it and adjusts the
rate from the *worst* receiver observed — NORM/TFMCC's "current
limiting receiver" rule, which makes a multicast flow no faster than
its slowest member can absorb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Protocol

from repro.protocol.config import CC_AIMD, CC_TFMCC, CongestionSpec
from repro.protocol.messages import FeedbackReport, Seq

_UNLIMITED = float("-inf")


class CongestionController(Protocol):
    """What the send driver needs from a congestion-control law."""

    name: str

    def on_send(self, now: float) -> None:
        """A data message was multicast at *now*."""
        ...

    def on_feedback(self, now: float, report: FeedbackReport) -> None:
        """A receiver's periodic feedback report arrived at *now*."""
        ...

    def on_nack(self, now: float, seq: Seq) -> None:
        """The sender observed a retransmission request for *seq*."""
        ...

    def send_credit(self, now: float) -> float:
        """Earliest instant the next send is permitted (``-inf``: now)."""
        ...

    def interval(self) -> float:
        """Current inter-send gap in ms (0 when unlimited)."""
        ...

    def parity_budget(self, block_size: int, base_parity: int) -> int:
        """Proactive parity messages the current loss regime warrants."""
        ...


@dataclass
class ReceiverState:
    """Last feedback seen from one receiver."""

    loss: float
    rtt_ms: float
    time: float


class _AdaptiveBase:
    """Shared plumbing for the rate-adapting controllers."""

    name = "adaptive"

    def __init__(self, config: CongestionSpec,
                 initial_rate: Optional[float] = None) -> None:
        self.config = config
        self._min_interval = 1000.0 / config.max_rate
        self._max_interval = 1000.0 / config.min_rate
        # Optimistic start: run at the configured ceiling until feedback
        # says otherwise, so an uncongested stream is untouched.
        start_rate = config.max_rate if initial_rate is None else initial_rate
        self._interval = self._clamp(1000.0 / start_rate)
        self._last_send: Optional[float] = None
        self.receivers: Dict[int, ReceiverState] = {}
        self._window_start: Optional[float] = None
        self._window_nacks = 0

    # -- driver surface -------------------------------------------------
    def on_send(self, now: float) -> None:
        self._last_send = now

    def on_nack(self, now: float, seq: Seq) -> None:
        self._maybe_close_window(now)
        self._window_nacks += 1

    def on_feedback(self, now: float, report: FeedbackReport) -> None:
        self._maybe_close_window(now)
        self.receivers[report.receiver] = ReceiverState(
            loss=report.loss_estimate, rtt_ms=report.rtt_ms, time=now
        )

    def send_credit(self, now: float) -> float:
        if self._last_send is None:
            return _UNLIMITED
        return self._last_send + self._interval

    def interval(self) -> float:
        return self._interval

    @property
    def rate(self) -> float:
        """Current rate in messages per second."""
        return 1000.0 / self._interval

    def parity_budget(self, block_size: int, base_parity: int) -> int:
        cfg = self.config
        if cfg.parity_max is None:
            return base_parity
        floor = cfg.parity_min if cfg.parity_min is not None else base_parity
        worst = self.worst_loss()
        # Cover the expected per-block losses of the worst receiver with
        # one message of headroom; relax back to the floor as loss fades.
        needed = floor if worst <= 0.0 else math.ceil(worst * block_size) + 1
        budget = min(max(floor, needed), cfg.parity_max)
        # GF(256) hard limit regardless of configured bounds.
        return min(budget, 256 - block_size)

    # -- control-law helpers -------------------------------------------
    def worst_loss(self) -> float:
        """Highest loss estimate across all receivers heard from."""
        if not self.receivers:
            return 0.0
        return max(state.loss for state in self.receivers.values())

    def worst_receiver(self) -> Optional[ReceiverState]:
        """The current limiting receiver (highest loss; slowest on ties)."""
        if not self.receivers:
            return None
        return max(self.receivers.values(), key=lambda s: (s.loss, s.rtt_ms))

    def set_rate(self, rate: float) -> None:
        """Clamp *rate* (msgs/s) into configured bounds and adopt it."""
        self._interval = self._clamp(1000.0 / max(rate, 1e-9))

    def _clamp(self, interval: float) -> float:
        return min(max(interval, self._min_interval), self._max_interval)

    def _maybe_close_window(self, now: float) -> None:
        if self._window_start is None:
            self._window_start = now
            return
        if now - self._window_start < self.config.feedback_interval:
            return
        nacks = self._window_nacks
        self._window_start = now
        self._window_nacks = 0
        self._adjust(now, nacks)

    def _adjust(self, now: float, window_nacks: int) -> None:
        raise NotImplementedError


class AimdController(_AdaptiveBase):
    """Additive-increase / multiplicative-decrease baseline.

    Once per feedback window: if the worst receiver's loss exceeds the
    target (or the sender observed NACKs in the window), the rate is
    multiplied by ``decrease_factor``; otherwise it grows by
    ``additive_increase`` messages/second.  The textbook sawtooth —
    simple, stable, and the yardstick the TFMCC controller is judged
    against.
    """

    name = CC_AIMD

    def __init__(self, config: CongestionSpec,
                 initial_rate: Optional[float] = None,
                 additive_increase: float = 10.0,
                 decrease_factor: float = 0.5) -> None:
        super().__init__(config, initial_rate)
        if additive_increase <= 0:
            raise ValueError(f"additive_increase must be > 0, got {additive_increase!r}")
        if not 0.0 < decrease_factor < 1.0:
            raise ValueError(f"decrease_factor must be in (0, 1), got {decrease_factor!r}")
        self.additive_increase = additive_increase
        self.decrease_factor = decrease_factor

    def _adjust(self, now: float, window_nacks: int) -> None:
        congested = self.worst_loss() > self.config.target_loss or window_nacks > 0
        if congested:
            self.set_rate(self.rate * self.decrease_factor)
        else:
            self.set_rate(self.rate + self.additive_increase)


def tcp_friendly_rate(loss: float, rtt_ms: float, rto_ms: Optional[float] = None,
                      ) -> float:
    """TCP-throughput-equation rate in messages/second.

    The simplified Padhye et al. response function used by TFMCC/NORM::

        T = 1 / (R*sqrt(2p/3) + t_RTO * 3*sqrt(3p/8) * p * (1 + 32 p^2))

    with ``R`` the RTT, ``t_RTO = 4R`` by default, and ``T`` in packets
    per the unit of ``R`` (converted here to per-second).  Returns
    ``inf`` when *loss* is zero.
    """
    if loss <= 0.0:
        return float("inf")
    rtt_s = max(rtt_ms, 1e-3) / 1000.0
    rto_s = (4.0 * rtt_ms if rto_ms is None else rto_ms) / 1000.0
    denominator = (
        rtt_s * math.sqrt(2.0 * loss / 3.0)
        + rto_s * 3.0 * math.sqrt(3.0 * loss / 8.0) * loss * (1.0 + 32.0 * loss ** 2)
    )
    return 1.0 / denominator


class TfmccController(_AdaptiveBase):
    """NORM-style TCP-friendly controller tracking the worst receiver.

    Once per feedback window the controller picks the current limiting
    receiver — the one reporting the highest loss (ties broken by RTT)
    — and sets the rate to the TCP throughput equation evaluated at
    that receiver's ``(loss, RTT)``, discounted by ``target_loss``
    headroom.  While no receiver reports loss (and no NACKs were
    observed) the rate climbs multiplicatively by ``increase_factor``
    per window towards the configured ceiling, mimicking TFMCC's
    slow-start-like probing.
    """

    name = CC_TFMCC

    def __init__(self, config: CongestionSpec,
                 initial_rate: Optional[float] = None,
                 increase_factor: float = 1.3) -> None:
        super().__init__(config, initial_rate)
        if increase_factor <= 1.0:
            raise ValueError(f"increase_factor must be > 1, got {increase_factor!r}")
        self.increase_factor = increase_factor

    def _adjust(self, now: float, window_nacks: int) -> None:
        limiting = self.worst_receiver()
        if limiting is None or limiting.loss <= 0.0:
            if window_nacks == 0:
                self.set_rate(self.rate * self.increase_factor)
            # NACKs without loss reports: hold the current rate.
            return
        # Steer towards the loss the config tolerates: evaluate the
        # equation at the *excess* over the target so a flow sitting
        # exactly at target_loss holds steady instead of collapsing.
        excess = max(limiting.loss - self.config.target_loss, 1e-4)
        self.set_rate(tcp_friendly_rate(excess, limiting.rtt_ms))


def controller_for(config: CongestionSpec,
                   initial_rate: Optional[float] = None) -> CongestionController:
    """Instantiate the controller the config names.

    ``"none"`` names no controller: an open-loop run installs no driver
    and sends on the traffic generator's own schedule.
    """
    if config.controller == CC_AIMD:
        return AimdController(config, initial_rate)
    if config.controller == CC_TFMCC:
        return TfmccController(config, initial_rate)
    raise ValueError(f"unknown congestion controller {config.controller!r}")
