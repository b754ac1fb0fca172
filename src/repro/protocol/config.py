"""RRMP protocol and buffer-management configuration.

One dataclass gathers every tunable the paper names, with defaults set
to the values used in the paper's §4 evaluation:

* intra-region RTT 10 ms (set in the latency model, not here);
* idle threshold ``T = 40 ms`` ("4 times the maximum round trip time");
* expected long-term bufferers ``C`` (Figures 3/4 study C ∈ 1..8; the
  paper's example "when C = 6 … the probability is only 0.25%" makes 6
  the natural default);
* expected remote requests per round ``λ = 1`` (§2.2's example).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

#: FEC operating modes (see :mod:`repro.fec`).
FEC_OFF = "off"                # no erasure coding (the paper's protocol)
FEC_PROACTIVE = "proactive"    # parity multicast as each block fills
FEC_REACTIVE = "reactive"      # parity multicast on first observed request
FEC_MODES = (FEC_OFF, FEC_PROACTIVE, FEC_REACTIVE)

#: Congestion controllers (see :mod:`repro.cc`).
CC_NONE = "none"        # open loop: today's behaviour, byte-identical
CC_TFMCC = "tfmcc"      # NORM-style TCP-friendly, worst-receiver tracking
CC_AIMD = "aimd"        # additive-increase / multiplicative-decrease baseline
CC_CONTROLLERS = (CC_NONE, CC_TFMCC, CC_AIMD)


@dataclass(frozen=True)
class CongestionConfig:
    """Congestion-control sub-configuration (see :mod:`repro.cc`).

    Groups what would otherwise be six more flat ``RrmpConfig`` kwargs.
    The default — controller ``"none"`` — reproduces the open-loop
    sender byte-identically: no feedback reporters are armed and the
    traffic generator is installed on the simulator unchanged.
    """

    #: Which controller drives the sender (one of :data:`CC_CONTROLLERS`).
    controller: str = CC_NONE

    #: Loss fraction the controller steers the worst receiver towards.
    target_loss: float = 0.05

    #: Rate floor/ceiling in messages per second.  The controller's
    #: inter-send credit is clamped to ``[1000/max_rate, 1000/min_rate]``
    #: milliseconds.
    min_rate: float = 1.0
    max_rate: float = 1000.0

    #: How often each receiver unicasts a :class:`FeedbackReport` to the
    #: sender, in milliseconds.
    feedback_interval: float = 50.0

    #: Adaptive-FEC parity-shift bounds.  When ``parity_max`` is set and
    #: the sender runs with ``fec_mode != "off"``, rising loss shifts the
    #: encoder's parity budget up towards ``parity_max`` (and the rate
    #: down); falling loss relaxes it back towards ``parity_min`` (which
    #: defaults to the configured ``fec_parity``).  ``parity_max=None``
    #: disables parity shifting.
    parity_min: Optional[int] = None
    parity_max: Optional[int] = None

    @property
    def enabled(self) -> bool:
        """Whether a real controller (not ``"none"``) is configured."""
        return self.controller != CC_NONE

    def __post_init__(self) -> None:
        if self.controller not in CC_CONTROLLERS:
            raise ValueError(
                f"controller must be one of {CC_CONTROLLERS}, got {self.controller!r}"
            )
        if not 0.0 <= self.target_loss < 1.0:
            raise ValueError(f"target_loss must be in [0, 1), got {self.target_loss!r}")
        if self.min_rate <= 0:
            raise ValueError(f"min_rate must be > 0, got {self.min_rate!r}")
        if self.max_rate < self.min_rate:
            raise ValueError(
                f"max_rate must be >= min_rate, got {self.max_rate!r} < {self.min_rate!r}"
            )
        if self.feedback_interval <= 0:
            raise ValueError(
                f"feedback_interval must be > 0, got {self.feedback_interval!r}"
            )
        for name in ("parity_min", "parity_max"):
            bound = getattr(self, name)
            if bound is not None and bound < 1:
                raise ValueError(f"{name} must be >= 1 or None, got {bound!r}")
        if (
            self.parity_min is not None
            and self.parity_max is not None
            and self.parity_min > self.parity_max
        ):
            raise ValueError(
                f"parity_min must be <= parity_max, got "
                f"{self.parity_min!r} > {self.parity_max!r}"
            )

    def with_overrides(self, **changes: object) -> "CongestionConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class RrmpConfig:
    """Tunable parameters for RRMP error recovery and buffering."""

    #: Expected number of remote requests sent by a region per remote
    #: round when the entire region missed a message (λ in §2.2).  Each
    #: missing member sends with probability λ/n.
    remote_lambda: float = 1.0

    #: Expected number of long-term bufferers per region (C in §3.2).
    #: When a message goes idle each member keeps it with probability
    #: C/n.  C = 0 disables long-term buffering entirely.
    long_term_c: float = 6.0

    #: Idle threshold T (§3.1): a buffered message is discarded (or
    #: promoted to long-term) once no request for it has arrived for
    #: this many milliseconds.  Paper value: 40 ms = 4 × max RTT.
    idle_threshold: float = 40.0

    #: Multiplier applied to the RTT estimate when arming request
    #: timers ("sets a timer according to its estimated round trip
    #: time"; 1.0 reproduces the paper's Figure 5 walkthrough).
    timer_factor: float = 1.0

    #: Interval between sender session messages (§2.1); ``None``
    #: disables them (single-burst experiments detect losses directly).
    session_interval: Optional[float] = 50.0

    #: Optional eventual discard of long-term-buffered messages: drop a
    #: long-term entry once unused for this long ("eventually even a
    #: long-term bufferer may decide to discard an idle message",
    #: §3.2).  ``None`` keeps long-term entries forever.
    long_term_ttl: Optional[float] = None

    #: Maximum random back-off before re-multicasting a remote repair in
    #: the local region, used to suppress duplicate regional multicasts
    #: (§2.2 mentions this trades latency for duplicate suppression).
    #: ``None`` multicasts immediately (the paper's default behaviour).
    regional_backoff_max: Optional[float] = None

    #: Give-up deadline for a recovery, measured from loss detection;
    #: crossing it records a reliability violation (§5 discusses the
    #: small residual violation probability).  ``None`` retries forever.
    max_recovery_time: Optional[float] = None

    #: Safety valve for degenerate configurations (e.g. nobody buffers
    #: a message): stop a search after this many locally-initiated
    #: rounds.  ``None`` searches as long as requests keep failing.
    max_search_rounds: Optional[int] = None

    #: FEC repair subsystem (see :mod:`repro.fec`).  ``fec_mode`` turns
    #: erasure coding off (the paper's protocol), on proactively (the
    #: sender multicasts ``fec_parity`` parity messages as each block
    #: of ``fec_block_size`` data messages completes) or on reactively
    #: (parity for a block is multicast the first time the sender
    #: observes a retransmission request for one of its messages).
    fec_mode: str = FEC_OFF
    fec_block_size: int = 8
    fec_parity: int = 1

    #: Congestion-control sub-configuration (see :mod:`repro.cc`).  The
    #: default controller ``"none"`` keeps the open-loop sender.
    congestion: CongestionConfig = field(default_factory=CongestionConfig)

    def __post_init__(self) -> None:
        if self.remote_lambda < 0:
            raise ValueError(f"remote_lambda must be >= 0, got {self.remote_lambda!r}")
        if self.long_term_c < 0:
            raise ValueError(f"long_term_c must be >= 0, got {self.long_term_c!r}")
        if self.idle_threshold <= 0:
            raise ValueError(f"idle_threshold must be > 0, got {self.idle_threshold!r}")
        if self.timer_factor <= 0:
            raise ValueError(f"timer_factor must be > 0, got {self.timer_factor!r}")
        if self.session_interval is not None and self.session_interval <= 0:
            raise ValueError("session_interval must be > 0 or None")
        if self.long_term_ttl is not None and self.long_term_ttl <= 0:
            raise ValueError("long_term_ttl must be > 0 or None")
        if self.regional_backoff_max is not None and self.regional_backoff_max < 0:
            raise ValueError("regional_backoff_max must be >= 0 or None")
        if self.max_recovery_time is not None and self.max_recovery_time <= 0:
            raise ValueError("max_recovery_time must be > 0 or None")
        if self.max_search_rounds is not None and self.max_search_rounds <= 0:
            raise ValueError("max_search_rounds must be > 0 or None")
        if self.fec_mode not in FEC_MODES:
            raise ValueError(
                f"fec_mode must be one of {FEC_MODES}, got {self.fec_mode!r}"
            )
        if self.fec_block_size < 1:
            raise ValueError(f"fec_block_size must be >= 1, got {self.fec_block_size!r}")
        if self.fec_parity < 0:
            raise ValueError(f"fec_parity must be >= 0, got {self.fec_parity!r}")
        if self.fec_mode != FEC_OFF:
            if self.fec_parity < 1:
                raise ValueError("fec_parity must be >= 1 when fec_mode is on")
            if self.fec_block_size + self.fec_parity > 256:
                raise ValueError(
                    "fec_block_size + fec_parity must be <= 256 (GF(256) limit), "
                    f"got {self.fec_block_size + self.fec_parity}"
                )

    def with_overrides(self, **changes: object) -> "RrmpConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: Configuration matching the paper's §4 simulation setup: T = 40 ms,
#: no session messages (losses are detected simultaneously at t = 0),
#: long-term buffering disabled so Figure 6/7 measure pure short-term
#: (feedback-based) buffering behaviour.
PAPER_SECTION4_CONFIG = RrmpConfig(
    long_term_c=0.0,
    idle_threshold=40.0,
    session_interval=None,
)
