"""RRMP protocol and buffer-management configuration.

Each protocol tunable is declared once, on a frozen node that is also
the scenario tree's (:mod:`repro.scenario.spec` imports them from
here): :class:`PolicySpec`, :class:`FecSpec` or :class:`CongestionSpec`.
The defaults are the paper's §4 evaluation values:

* intra-region RTT 10 ms (set in the latency model, not here);
* idle threshold ``T = 40 ms`` ("4 times the maximum round trip time");
* expected long-term bufferers ``C`` (Figures 3/4 study C ∈ 1..8; the
  paper's example "when C = 6 … the probability is only 0.25%" makes 6
  the natural default);
* expected remote requests per round ``λ = 1`` (§2.2's example).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    Literal,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

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

#: Buffer-management families (see :class:`PolicySpec`).
POLICY_KINDS = (
    "two_phase", "fixed_time", "stability", "hash", "never_discard", "no_buffer",
)

#: node class -> its (field name, annotation, converter) rules, resolved
#: on the first instance.
_FIELD_RULES: Dict[type, Tuple[Tuple[str, Any, Callable[[Any], Any]], ...]] = {}


def normalise_fields(node: Any) -> None:
    """Store every field of the frozen dataclass *node* as its annotation says.

    The one normalisation rule of the spec tree, called first thing in
    each node's ``__post_init__``: a ``float`` field stores
    ``float(value)`` and refuses nan and ±inf (no spec value is
    infinite), an ``int`` field accepts integral values only, a
    ``Tuple`` field turns lists into tuples (element by element),
    ``Optional`` admits ``None``, a ``Literal`` field (a node's
    discriminator, whose values it declares) takes one of its values,
    and a ``bool``, ``str`` or node field takes an instance of its
    class.  Anything else raises ``ValueError``
    naming the node and the field.  Equal values thus make equal nodes,
    with equal hashes and serialised forms, however they were spelled.
    """
    cls = type(node)
    rules = _FIELD_RULES.get(cls)
    if rules is None:
        hints = get_type_hints(cls)
        rules = _FIELD_RULES[cls] = tuple(
            (spec_field.name, hints[spec_field.name], _converter(hints[spec_field.name]))
            for spec_field in fields(cls)
        )
    for name, hint, convert in rules:
        value = getattr(node, name)
        try:
            normal = convert(value)
        except (TypeError, ValueError, OverflowError):
            shown = hint.__name__ if isinstance(hint, type) else str(hint)
            shown = shown.replace("typing.", "").replace("float", "finite float")
            raise ValueError(
                f"{cls.__name__}.{name} must be {shown}, got {value!r}"
            ) from None
        if normal is not value:
            object.__setattr__(node, name, normal)


def _converter(hint: Any) -> Callable[[Any], Any]:
    """The function that stores a value for annotation *hint*; it raises
    ``TypeError`` on a value the annotation does not admit."""
    if hint in (int, float):

        def number(value: Any) -> Any:
            if type(value) is not hint:
                if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                        or (hint is int and int(value) != value)):
                    raise TypeError(value)
                value = hint(value)
            if not -math.inf < value < math.inf:
                raise ValueError(value)
            return value

        return number
    if isinstance(hint, type):  # bool, str or a node class

        def instance(value: Any) -> Any:
            if not isinstance(value, hint):
                raise TypeError(value)
            return value

        return instance
    args = get_args(hint)
    if get_origin(hint) is Literal:

        def one_of(value: Any) -> Any:
            if value not in args:
                raise ValueError(value)
            return value

        return one_of
    if get_origin(hint) is Union and len(args) == 2 and type(None) in args:
        inner = _converter(args[0] if args[1] is type(None) else args[1])
        return lambda value: None if value is None else inner(value)
    if get_origin(hint) is tuple:
        variadic = args[-1] is Ellipsis
        items = [_converter(arg) for arg in (args[:1] if variadic else args)]

        def to_tuple(value: Any) -> tuple:
            if not isinstance(value, (tuple, list)) or (
                    not variadic and len(value) != len(items)):
                raise TypeError(value)
            converters = items * len(value) if variadic else items
            return tuple(convert(entry) for convert, entry in zip(converters, value))

        return to_tuple
    raise TypeError(f"no normalisation rule for annotation {hint!r}")


@dataclass(frozen=True)
class CongestionSpec:
    """Congestion control for the sender (see :mod:`repro.cc`).

    ``controller`` selects the control law (one of
    :data:`CC_CONTROLLERS`):

    * ``none`` — open loop (the default; byte-identical to historical
      behaviour: no controller, no driver and no feedback reporters;
      the traffic generator is installed on the simulator unchanged);
    * ``tfmcc`` — NORM-style TCP-friendly rate from the worst
      receiver's loss/RTT feedback;
    * ``aimd`` — additive-increase / multiplicative-decrease baseline.

    The scenario installs it (``ScenarioSpec.congestion``) as the
    sender's :class:`~repro.cc.driver.CongestionDriver`.
    """

    controller: Literal[CC_CONTROLLERS] = CC_NONE

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
    #: the sender runs FEC (:attr:`FecSpec.enabled`), rising loss shifts
    #: the encoder's parity budget up towards ``parity_max`` (and the
    #: rate down); falling loss relaxes it back towards ``parity_min``
    #: (which defaults to :attr:`FecSpec.parity`).  ``parity_max=None``
    #: disables parity shifting.
    parity_min: Optional[int] = None
    parity_max: Optional[int] = None

    @property
    def enabled(self) -> bool:
        """Whether a real controller (not ``"none"``) is configured."""
        return self.controller != CC_NONE

    def __post_init__(self) -> None:
        normalise_fields(self)
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


@dataclass(frozen=True)
class PolicySpec:
    """The buffer policy and the protocol's recovery tunables.

    ``kind`` selects the buffer-management family (one of
    :data:`POLICY_KINDS`):

    * ``two_phase`` — the paper's contribution (short-term feedback
      phase + randomized long-term selection), parameterized by ``c``,
      ``idle_threshold`` and ``long_term_ttl``;
    * ``fixed_time`` — Bimodal-Multicast-style hold for ``hold_time``;
    * ``stability`` — gossip stability detection (discard only when
      globally stable);
    * ``hash`` — the authors' NGC'99 deterministic hash selection with
      expected copy count ``c``;
    * ``never_discard`` / ``no_buffer`` — the §1 strawmen.

    The other fields tune loss recovery (§2) whatever the policy.  One
    class serves the scenario tree (``ScenarioSpec.policy``) and the
    protocol: every member group and member reads it as ``config``.
    """

    kind: Literal[POLICY_KINDS] = "two_phase"

    #: Expected long-term bufferers per region (C in §3.2): an idle
    #: message is kept with probability C/n, C = 0 disables long-term
    #: buffering.  Also the ``hash`` policy's expected copy count.
    c: float = 6.0

    #: Idle threshold T (§3.1): a buffered message is discarded (or
    #: promoted to long-term) once no request for it has arrived for
    #: this many milliseconds.  Paper value: 40 ms = 4 × max RTT.
    idle_threshold: float = 40.0

    #: Drop a long-term entry once unused for this long ("eventually even
    #: a long-term bufferer may decide to discard an idle message",
    #: §3.2).  ``None`` keeps long-term entries forever.
    long_term_ttl: Optional[float] = None

    #: How long the ``fixed_time`` policy holds every message, in ms.
    hold_time: float = 200.0

    #: Expected number of remote requests sent by a region per remote
    #: round when the entire region missed a message (λ in §2.2).  Each
    #: missing member sends with probability λ/n.
    remote_lambda: float = 1.0

    #: Interval between sender session messages (§2.1); ``None``
    #: disables them (single-burst experiments detect losses directly).
    session_interval: Optional[float] = 50.0

    #: Multiplier applied to the RTT estimate when arming request
    #: timers ("sets a timer according to its estimated round trip
    #: time"; 1.0 reproduces the paper's Figure 5 walkthrough).  At most
    #: 1e6, so the timer every reader arms from ``rtt * timer_factor``
    #: stays finite.
    timer_factor: float = 1.0

    #: Give-up deadline for a recovery, measured from loss detection;
    #: crossing it records a reliability violation (§5 discusses the
    #: small residual violation probability).  It also bounds each §3.3
    #: search a member runs, from when that member joined it.  ``None``
    #: retries and searches forever.
    max_recovery_time: Optional[float] = None

    #: Safety valve for degenerate configurations (e.g. nobody buffers
    #: a message): stop a search after this many locally-initiated
    #: rounds.  ``None`` searches as long as requests keep failing.
    max_search_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        normalise_fields(self)
        for name in ("c", "remote_lambda"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        for name in ("idle_threshold", "hold_time", "timer_factor", "session_interval",
                     "long_term_ttl", "max_recovery_time", "max_search_rounds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        if self.timer_factor > 1e6:
            raise ValueError(f"timer_factor must be <= 1e6, got {self.timer_factor!r}")

    @property
    def long_term_c(self) -> float:
        """``c`` under its old protocol name.  It exists because the perf
        ledger's ``stream_1k`` check reads ``simulation.config.long_term_c``;
        nothing in this package reads it."""
        return self.c


@dataclass(frozen=True)
class FecSpec:
    """Erasure-coded repair (see :mod:`repro.fec`).

    ``mode`` (one of :data:`FEC_MODES`) turns erasure coding off (the
    paper's protocol), on proactively (the sender multicasts ``parity``
    parity messages as each block of ``block_size`` data messages
    completes) or on reactively (a block's parity is multicast the
    first time the sender observes a retransmission request for one of
    its messages).  ``flush_after`` schedules a tail-block parity flush
    that many ms after the traffic stream ends (``None`` = never flush).
    """

    mode: Literal[FEC_MODES] = FEC_OFF
    block_size: int = 8
    parity: int = 1
    flush_after: Optional[float] = 1.0

    def __post_init__(self) -> None:
        normalise_fields(self)
        if self.block_size < 1:
            raise ValueError(f"fec block_size must be >= 1, got {self.block_size!r}")
        if self.parity < (1 if self.enabled else 0):
            raise ValueError(
                f"fec parity must be >= {int(self.enabled)} with mode "
                f"{self.mode!r}, got {self.parity!r}"
            )
        if self.enabled and self.block_size + self.parity > 256:
            raise ValueError(
                "fec block_size + parity must be <= 256 (GF(256) limit), "
                f"got {self.block_size + self.parity}"
            )
        if self.flush_after is not None and self.flush_after < 0:
            raise ValueError(f"flush_after must be >= 0, got {self.flush_after!r}")

    @property
    def enabled(self) -> bool:
        """Whether erasure coding (not ``"off"``) is configured."""
        return self.mode != FEC_OFF
