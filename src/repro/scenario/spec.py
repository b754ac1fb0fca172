"""Declarative, serializable scenario specifications.

The paper's results are all products of one implicit tuple —
topology × traffic × loss × churn × buffer policy — which the rest of
the repository used to assemble by hand at every call site.
:class:`ScenarioSpec` makes that tuple a first-class value: a frozen
dataclass tree that

* round-trips losslessly through JSON (:meth:`ScenarioSpec.to_json` /
  :meth:`ScenarioSpec.from_json`) and pickle, so the sweep runner's
  process-pool backend can ship specs to workers and its result cache
  can key on them;
* has a stable :meth:`ScenarioSpec.digest` (SHA-256 of the canonical
  JSON form) that is identical across process restarts and platforms;
* materializes into a fully wired
  :class:`~repro.protocol.rrmp.RrmpSimulation` plus scheduled traffic
  and churn via :meth:`ScenarioSpec.build` (see
  :mod:`repro.scenario.materialize`).

Every sub-spec is a plain frozen dataclass discriminated by a ``kind``
string whose ``Literal`` annotation declares its values, so adding a new
topology/traffic/loss family is one value there plus one materializer
branch — not a new experiment module.  A node's ``__post_init__`` holds
its range rules, and :class:`ScenarioSpec`'s the rules that tie nodes
together, so a spec that constructs also builds.  The
``policy``, ``fec`` and ``congestion`` nodes are the protocol's own
configuration, declared in :mod:`repro.protocol.config`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from typing import (
    Any,
    Dict,
    Literal,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    get_type_hints,
)

from repro.protocol.config import CongestionSpec, FecSpec, PolicySpec, normalise_fields

#: Field metadata of a field added after specs were first digested:
#: :meth:`ScenarioSpec.to_dict` leaves it out while it holds its
#: default, so every older spec keeps its serialised form and digest.
OMIT_AT_DEFAULT = {"omit_at_default": True}


@dataclass(frozen=True)
class TopologySpec:
    """Where the receivers are and how far apart (regions + latency).

    ``kind`` selects a :mod:`repro.net.topology` builder:

    * ``single_region`` — one region of ``n`` members (§4's setting);
    * ``chain`` — regions in a line with sizes ``sizes`` (Figure 1);
    * ``star`` — a root region of ``n`` members with one child region
      per entry of ``sizes``;
    * ``balanced_tree`` — ``depth`` levels of ``fanout`` children,
      ``n`` members per region.

    Latency rides along (one-way ms): ``intra_one_way`` within a
    region, ``inter_one_way`` per region hop — the paper's 10 ms
    intra-region RTT is the default.  ``inter_up_one_way`` /
    ``inter_down_one_way`` optionally split the inter-region delay by
    direction (netem-style asymmetry: hops toward an ancestor region
    vs hops away from it); ``None`` keeps the symmetric value.  Every
    latency is > 0, since recovery rounds re-arm one round-trip apart and
    at 0 the clock would never move, and at most 1e9 ms, so every path
    delay and round-trip timer stays finite.
    """

    kind: Literal["single_region", "chain", "star", "balanced_tree"] = "single_region"
    n: int = 100
    sizes: Tuple[int, ...] = ()
    depth: int = 1
    fanout: int = 2
    intra_one_way: float = 5.0
    inter_one_way: float = 40.0
    inter_up_one_way: Optional[float] = field(default=None, metadata=OMIT_AT_DEFAULT)
    inter_down_one_way: Optional[float] = field(default=None, metadata=OMIT_AT_DEFAULT)

    def __post_init__(self) -> None:
        normalise_fields(self)
        if self.kind in ("single_region", "star", "balanced_tree") and self.n < 1:
            raise ValueError(f"topology n must be >= 1, got {self.n}")
        if self.kind == "chain" and not self.sizes:
            raise ValueError("chain topology requires non-empty sizes")
        if any(size < 1 for size in self.sizes):
            raise ValueError(f"region sizes must be >= 1, got {self.sizes}")
        if self.kind == "balanced_tree" and (self.depth < 0 or self.fanout < 1):
            raise ValueError(f"balanced_tree needs depth >= 0 and fanout >= 1, "
                             f"got depth={self.depth} and fanout={self.fanout}")
        for name in ("intra_one_way", "inter_one_way",
                     "inter_up_one_way", "inter_down_one_way"):
            value = getattr(self, name)
            if value is not None and not 0 < value <= 1e9:
                raise ValueError(f"{name} must be > 0 and <= 1e9 ms, got {value!r}")

    def member_count(self) -> int:
        """Total receivers the topology will contain."""
        if self.kind == "single_region":
            return self.n
        if self.kind == "chain":
            return sum(self.sizes)
        if self.kind == "star":
            return self.n + sum(self.sizes)
        regions = sum(self.fanout ** level for level in range(self.depth + 1))
        return self.n * regions


@dataclass(frozen=True)
class TrafficSpec:
    """What the sender (or the workload injector) does over time.

    Stream kinds schedule multicasts through the sender:

    * ``uniform`` — ``count`` messages every ``interval`` ms from
      ``start``;
    * ``poisson`` — a Poisson process of ``rate`` msgs/ms over
      ``duration`` ms (0 = until the measurement horizon);
    * ``burst`` — explicit ``(time, size)`` bursts;
    * ``ramp`` — ``count`` messages whose inter-send gap shrinks
      linearly from ``initial_interval`` to ``final_interval``
      (overload-onset workloads).

    Probe kinds reproduce the paper's §4 single-message setups:

    * ``detect_all`` — one message held by ``holders`` random members;
      every other member detects the loss simultaneously (Figures 6/7);
    * ``search_probe`` — one message every root-region member received
      and exactly ``bufferers`` of them still buffer; a downstream
      member's remote request must find a bufferer (Figures 8/9).
    """

    kind: Literal[
        "none", "uniform", "poisson", "burst", "ramp", "detect_all", "search_probe",
    ] = "none"
    count: int = 0
    interval: float = 25.0
    start: float = 0.0
    rate: float = 1.0
    duration: float = 0.0
    bursts: Tuple[Tuple[float, int], ...] = ()
    initial_interval: float = 50.0
    final_interval: float = 5.0
    holders: int = 1
    bufferers: int = 1

    def __post_init__(self) -> None:
        normalise_fields(self)
        if self.start < 0:
            raise ValueError(f"traffic start must be >= 0, got {self.start!r}")
        if self.kind in ("uniform", "ramp") and self.count < 0:
            raise ValueError(f"traffic count must be >= 0, got {self.count}")
        if self.kind == "uniform" and self.interval <= 0:
            raise ValueError(f"traffic interval must be > 0, got {self.interval!r}")
        if self.kind == "poisson" and self.rate <= 0:
            raise ValueError(f"traffic rate must be > 0, got {self.rate!r}")
        if self.kind == "ramp" and (
            self.initial_interval <= 0 or self.final_interval <= 0
        ):
            raise ValueError("ramp intervals must be > 0")
        if self.kind == "burst":
            for burst_time, burst_size in self.bursts:
                if burst_time < 0:
                    raise ValueError(f"burst time must be >= 0, got {burst_time!r}")
                if burst_size < 1:
                    raise ValueError(f"burst size must be >= 1, got {burst_size}")
        if self.kind == "detect_all" and self.holders < 1:
            raise ValueError(f"detect_all requires holders >= 1, got {self.holders}")
        if self.kind == "search_probe" and self.bufferers < 0:
            raise ValueError(f"bufferers must be >= 0, got {self.bufferers}")


@dataclass(frozen=True)
class LossSpec:
    """Where messages get lost.

    * ``bernoulli`` — each receiver independently misses a multicast
      with probability ``p`` (the paper's §4 model, applied at
      IP-multicast time);
    * ``fixed_holders`` — exactly ``k`` random receivers get each
      multicast;
    * ``region_correlated`` — whole regions miss a message with
      ``region_loss``; survivors additionally lose independently with
      ``receiver_loss``;
    * ``gilbert_elliott`` — a two-state (good/bad) Markov channel per
      directed link, applied to every data packet in the transport
      (initial multicast *and* repairs): bursty wireless-style loss;
    * ``bottleneck`` — a capacity-constrained shared link of
      ``capacity`` packet deliveries per second (counted per-receiver,
      so one multicast to *n* members spends *n* units) measured over
      a trailing ``window`` ms: data packets (multicasts *and*
      repairs) drop with the excess ratio beyond capacity, plus an
      independent ``receiver_loss`` floor.  The congestion-control
      ablations run on this model — it is the only one where offered
      load feeds back into loss.
    * ``outage`` — a correlated whole-region partition: during
      ``[outage_start, outage_start + outage_duration)`` the last
      ``outage_regions`` non-sender regions are cut off from the rest
      of the tree (every packet — data *and* control — crossing the
      partition boundary drops); after the heal the stranded members
      recover their accumulated gaps through normal session-message
      gap detection.  An optional independent ``receiver_loss`` floor
      applies to data packets throughout.
    """

    kind: Literal[
        "none", "bernoulli", "fixed_holders", "region_correlated", "gilbert_elliott",
        "bottleneck", "outage",
    ] = "none"
    p: float = 0.0
    k: int = 0
    region_loss: float = 0.0
    receiver_loss: float = 0.0
    p_good_to_bad: float = 0.01
    p_bad_to_good: float = 0.3
    p_good: float = 0.0
    p_bad: float = 0.5
    capacity: float = field(default=0.0, metadata=OMIT_AT_DEFAULT)
    window: float = field(default=250.0, metadata=OMIT_AT_DEFAULT)
    outage_start: float = field(default=0.0, metadata=OMIT_AT_DEFAULT)
    outage_duration: float = field(default=0.0, metadata=OMIT_AT_DEFAULT)
    outage_regions: int = field(default=1, metadata=OMIT_AT_DEFAULT)

    def __post_init__(self) -> None:
        normalise_fields(self)
        for name in ("p", "region_loss", "receiver_loss",
                     "p_good_to_bad", "p_bad_to_good", "p_good", "p_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"loss {name} must be in [0, 1], got {value!r}")
        if self.kind == "fixed_holders" and self.k < 0:
            raise ValueError(f"loss k must be >= 0, got {self.k}")
        if self.kind == "bottleneck" and self.capacity <= 0:
            raise ValueError(
                f"bottleneck loss needs capacity > 0 msgs/s, got {self.capacity!r}"
            )
        if self.window <= 0:
            raise ValueError(f"loss window must be > 0 ms, got {self.window!r}")
        if self.outage_start < 0 or self.outage_duration < 0:
            raise ValueError("outage times must be >= 0")
        if self.outage_regions < 1:
            raise ValueError(
                f"outage_regions must be >= 1, got {self.outage_regions}"
            )
        if self.kind == "outage" and self.outage_duration <= 0:
            raise ValueError(
                f"outage loss needs outage_duration > 0 ms, got {self.outage_duration!r}"
            )


@dataclass(frozen=True)
class ChurnSpec:
    """Membership dynamics: Poisson leave/crash/join over a window.

    Rates are events per millisecond over ``[0, duration]`` (0 =
    until the measurement horizon).  ``protect_sender`` keeps the
    sender alive — without it a crashed sender ends the session.
    """

    kind: Literal["none", "random"] = "none"
    leave_rate: float = 0.0
    crash_rate: float = 0.0
    join_rate: float = 0.0
    duration: float = 0.0
    protect_sender: bool = True

    def __post_init__(self) -> None:
        normalise_fields(self)
        for name in ("leave_rate", "crash_rate", "join_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"churn {name} must be >= 0")
        if self.duration < 0:
            raise ValueError(f"churn duration must be >= 0, got {self.duration!r}")


@dataclass(frozen=True)
class MobilitySpec:
    """Waypoint mobility: receivers roam a square field and hand off.

    ``kind`` selects the model:

    * ``none`` — receivers stay where the topology put them (the
      default; byte-identical to historical behaviour, no mobility
      manager is built);
    * ``waypoint`` — every receiver walks toward a waypoint at
      ``speed`` field-units per ms, re-drawn from a deterministic
      per-(node, epoch) seed when reached.  Each region owns a fixed
      anchor point; every ``epoch`` ms each node re-evaluates its
      nearest anchor and, when that differs from its current region,
      gracefully leaves (§3.2 handoff — long-term buffers drain
      through the handoff path) and re-joins the new region.

    ``area`` is the field side length, ``duration`` bounds movement
    (0 = until the measurement horizon/duration), ``distance_loss``
    adds per-link data loss growing with sender/receiver distance
    (0 at co-location, ``distance_loss`` at full-field separation),
    and ``protect_sender`` pins the sender so the session survives.
    """

    kind: Literal["none", "waypoint"] = "none"
    speed: float = 4.0
    epoch: float = 50.0
    area: float = 1000.0
    duration: float = 0.0
    distance_loss: float = 0.0
    protect_sender: bool = True

    def __post_init__(self) -> None:
        normalise_fields(self)
        if self.speed < 0:
            raise ValueError(f"mobility speed must be >= 0, got {self.speed!r}")
        if self.epoch <= 0:
            raise ValueError(f"mobility epoch must be > 0 ms, got {self.epoch!r}")
        if self.area <= 0:
            raise ValueError(f"mobility area must be > 0, got {self.area!r}")
        if self.duration < 0:
            raise ValueError(
                f"mobility duration must be >= 0, got {self.duration!r}"
            )
        if not 0.0 <= self.distance_loss <= 1.0:
            raise ValueError(
                f"mobility distance_loss must be in [0, 1], got {self.distance_loss!r}"
            )

    @property
    def enabled(self) -> bool:
        """Whether a real mobility model (not ``"none"``) is requested."""
        return self.kind != "none"


@dataclass(frozen=True)
class PlayoutSpec:
    """Streaming playback deadlines per receiver (see :mod:`repro.metrics.rebuffer`).

    * ``none`` — no playout clocks (the default; byte-identical to
      historical behaviour, no rebuffer tracker is attached);
    * ``cbr`` — each receiver plays sequence numbers in order from its
      first delivery: playback starts ``startup_delay`` ms after the
      first arrival and consumes one sequence number every
      ``interval`` ms.  A frame arriving after its deadline counts one
      rebuffer (stall) event and its lateness as stall time, and
      shifts all later deadlines by the stall (playback pauses).
    """

    kind: Literal["none", "cbr"] = "none"
    interval: float = 25.0
    startup_delay: float = 100.0

    def __post_init__(self) -> None:
        normalise_fields(self)
        if self.interval <= 0:
            raise ValueError(f"playout interval must be > 0 ms, got {self.interval!r}")
        if self.startup_delay < 0:
            raise ValueError(
                f"playout startup_delay must be >= 0, got {self.startup_delay!r}"
            )

    @property
    def enabled(self) -> bool:
        """Whether playout clocks (not ``"none"``) are requested."""
        return self.kind != "none"


@dataclass(frozen=True)
class AdaptSpec:
    """Adaptive repair-hierarchy re-optimization (see :mod:`repro.adapt`).

    ``mode`` selects the subsystem:

    * ``off`` — the hierarchy stays exactly as built (the default;
      byte-identical to historical behaviour, no optimizer scheduled);
    * ``passive`` — a link-state estimator learns per-region-pair loss
      and RTT purely from existing recovery/feedback traffic, and a
      periodic optimizer re-parents regions to minimize the predicted
      repair makespan (per-hop ETX·RTT path cost).

    ``update_interval`` paces the optimizer (ms between passes);
    ``hysteresis`` is the minimum relative path-cost improvement a
    re-parent must promise (0.1 = 10% better); ``max_reparents`` is a
    hard per-run budget bounding tree-maintenance churn (at most one
    re-parent is applied per pass as well); ``ewma_alpha`` is the
    link-state smoothing factor.
    """

    mode: Literal["off", "passive"] = "off"
    update_interval: float = 250.0
    hysteresis: float = 0.1
    max_reparents: int = 8
    ewma_alpha: float = 0.2

    def __post_init__(self) -> None:
        normalise_fields(self)
        if self.update_interval <= 0:
            raise ValueError(
                f"adapt update_interval must be > 0 ms, got {self.update_interval!r}"
            )
        if self.hysteresis < 0:
            raise ValueError(f"adapt hysteresis must be >= 0, got {self.hysteresis!r}")
        if self.max_reparents < 0:
            raise ValueError(
                f"adapt max_reparents must be >= 0, got {self.max_reparents}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(
                f"adapt ewma_alpha must be in (0, 1], got {self.ewma_alpha!r}"
            )

    @property
    def enabled(self) -> bool:
        """Whether the adaptive subsystem (not ``"off"``) is requested."""
        return self.mode != "off"


@dataclass(frozen=True)
class MeasurementSpec:
    """How long to run and what to record.

    ``horizon`` (the time the run stops at) and ``duration`` (how long
    it runs from t=0) are one bound named two ways, so a spec sets at
    most one; :attr:`bound` reads it.  With no bound, or after it with
    ``drain=True``, the run settles: the session heartbeat stays up until
    no send is due and every alive member has received or detected the
    sender's last seq (once the stream has ended, for no more heartbeat
    rounds without news than the stream took), then everything periodic
    stops and the run drains.  ``drain`` stops the other periodic parts
    at the bound; an unbounded run keeps them up.  ``probe_period``
    turns on the occupancy probes (total and per-node peak) every that
    many ms.
    ``oracle=True`` attaches the protocol invariant oracle
    (:mod:`repro.validate`) for the whole run and finalizes it at the
    measurement end; default off, so experiment outputs are untouched
    unless a run opts into validation.
    ``keep_trace=False`` retains no trace records.  Counts of a kind
    (``reliability_violations``) come from the log's tally and are the
    same either way; ``recoveries`` and ``mean_recovery_latency_ms`` are
    read off retained records and report 0 without them.
    """

    horizon: Optional[float] = None
    duration: Optional[float] = None
    drain: bool = False
    probe_period: Optional[float] = None
    keep_trace: bool = True
    oracle: bool = False

    def __post_init__(self) -> None:
        normalise_fields(self)
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon!r}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration!r}")
        if self.horizon is not None and self.duration is not None:
            raise ValueError(f"horizon and duration are exclusive, got horizon="
                             f"{self.horizon!r} and duration={self.duration!r}")
        if self.probe_period is not None and self.probe_period <= 0:
            raise ValueError(f"probe_period must be > 0, got {self.probe_period!r}")

    @property
    def bound(self) -> Optional[float]:
        """The virtual time a bounded run stops at; ``None`` when unbounded."""
        return self.horizon if self.horizon is not None else self.duration


class _Slot(NamedTuple):
    name: str
    #: The node class of a sub-spec field, ``None`` for a plain value.
    node: Optional[type]
    default: Any
    omit_at_default: bool


@lru_cache(maxsize=None)
def _slots(cls: type) -> Tuple[_Slot, ...]:
    """*cls*'s fields as serialisation sees them, resolved once."""
    hints = get_type_hints(cls)
    return tuple(
        _Slot(
            spec_field.name,
            hints[spec_field.name] if is_dataclass(hints[spec_field.name]) else None,
            spec_field.default if spec_field.default is not MISSING
            else spec_field.default_factory(),  # type: ignore[misc]
            bool(spec_field.metadata.get("omit_at_default")),
        )
        for spec_field in fields(cls)
    )


def _payload(node: Any) -> Dict[str, Any]:
    payload = {}
    for slot in _slots(type(node)):
        value = getattr(node, slot.name)
        if slot.omit_at_default and value == slot.default:
            continue
        payload[slot.name] = value if slot.node is None else _payload(value)
    return payload


def _from_payload(cls: type, payload: Mapping[str, Any], what: str) -> Any:
    slots = {slot.name: slot for slot in _slots(cls)}
    unknown = sorted(set(payload) - set(slots))
    if unknown:
        raise ValueError(f"unknown {what} fields: {', '.join(unknown)}")
    return cls(**{
        key: value if slots[key].node is None else _from_payload(slots[key].node, value, key)
        for key, value in payload.items()
    })


@dataclass(frozen=True)
class ScenarioSpec:
    """The complete declarative description of one simulation run."""

    name: str = "scenario"
    seed: int = 0
    topology: TopologySpec = field(default_factory=TopologySpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    loss: LossSpec = field(default_factory=LossSpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    fec: FecSpec = field(default_factory=FecSpec)
    congestion: CongestionSpec = field(
        default_factory=CongestionSpec, metadata=OMIT_AT_DEFAULT)
    adapt: AdaptSpec = field(default_factory=AdaptSpec, metadata=OMIT_AT_DEFAULT)
    mobility: MobilitySpec = field(default_factory=MobilitySpec, metadata=OMIT_AT_DEFAULT)
    playout: PlayoutSpec = field(default_factory=PlayoutSpec, metadata=OMIT_AT_DEFAULT)
    measurement: MeasurementSpec = field(default_factory=MeasurementSpec)
    description: str = ""

    def __post_init__(self) -> None:
        normalise_fields(self)
        topology, traffic = self.topology, self.traffic
        members = topology.member_count()
        if traffic.kind == "search_probe":
            root = topology.sizes[0] if topology.kind == "chain" else topology.n
            if members == root:  # the sender's region is the only one
                raise ValueError("search_probe needs at least two regions")
            if traffic.bufferers > root:
                raise ValueError(f"search_probe bufferers must be <= the first region's "
                                 f"{root} members, got {traffic.bufferers}")
        if traffic.kind == "detect_all" and traffic.holders > members:
            raise ValueError(f"detect_all holders must be <= the group's {members} "
                             f"members, got {traffic.holders}")
        untimed = [what for what, on, duration in (
            ("poisson traffic", traffic.kind == "poisson", traffic.duration),
            ("random churn", self.churn.kind == "random", self.churn.duration),
            ("mobility", self.mobility.enabled, self.mobility.duration),
        ) if on and duration <= 0]
        if untimed and self.measurement.bound is None:
            raise ValueError(f"{untimed[0]} needs a duration or a horizon")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready plain-dict form.

        A field declared with :data:`OMIT_AT_DEFAULT` metadata is left
        out while it equals its default, so specs written before it
        existed keep their serialised form — and their :meth:`digest`.
        """
        return _payload(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (lists revert to tuples)."""
        return _from_payload(cls, payload, "scenario")

    def to_json(self, indent: Optional[int] = None) -> str:
        """Lossless JSON serialization."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`; ``from_json(to_json(s)) == s``."""
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """SHA-256 of the canonical JSON form — stable across process
        restarts, platforms and Python versions, so sweep caches and
        result artifacts can key on it."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def with_(self, **changes: Any) -> "ScenarioSpec":
        """A copy with top-level fields replaced (``seed=...`` etc.)."""
        return replace(self, **changes)

    def build(self):
        """Materialize into a :class:`repro.scenario.materialize.BuiltScenario`.

        Constructs the :class:`~repro.protocol.rrmp.RrmpSimulation`,
        attaches probes, and schedules traffic and churn.  Imported
        lazily to keep this module dependency-free (specs must stay
        picklable and cheap to import in worker processes).
        """
        from repro.scenario.materialize import build_scenario

        return build_scenario(self)

    def run(self):
        """Build and run to the measurement end; returns the built scenario."""
        return self.build().run()
