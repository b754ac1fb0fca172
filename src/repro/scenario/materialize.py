"""Materialize a :class:`~repro.scenario.spec.ScenarioSpec` into a run.

There is one path from a spec to a wired, loaded member group, and every
runner but the flat one walks it: :func:`network_models` builds what
must exist before the group (hierarchy, latency, transport loss, sender
outcome, mobility manager), :func:`build_group` builds an RRMP or RMTP
tree group on it — :class:`~repro.live.session.LiveSession` its members
over UDP — and :func:`install_workload` installs the paper's §3–§4
workload through the :class:`~repro.protocol.rrmp.MemberGroup` surface.
:class:`BuiltScenario` then plans, stops, finalizes and summarizes the
run the same way whichever clock drives it.

Determinism contract: for a given spec the build performs the exact
same construction steps, in the same order, with the same named RNG
streams as the historical hand-assembled setups — so migrating an
experiment onto specs leaves its tables byte-identical.  Build order:

1. hierarchy, latency, transport loss, outcome;
2. the group itself (each member builds the buffer policy
   ``policy.kind`` names);
3. trace subscribers (makespan, playout), adaptive tree, oracle;
4. stability agents (``policy.kind == "stability"``);
5. occupancy probes (``measurement.probe_period``);
6. traffic (streams scheduled; probe workloads injected immediately);
7. FEC tail flush;
8. churn;
9. mobility epochs (``spec.mobility``, pre-scheduled finite ticks).

Steps 5-before-6 matter: probe and send events that share a deadline
fire in insertion order, and the historical experiments created their
probes before scheduling traffic.

Run plan: :meth:`BuiltScenario.plan` is the one reading of the
measurement node (:class:`~repro.scenario.spec.MeasurementSpec` states its
stop rule), a generator of "advance to virtual time t" and "until idle"
steps that :meth:`BuiltScenario.run` drives on the simulated clock (the
RMTP tree included) and :meth:`~repro.live.session.LiveSession.run` on
the wall clock.

Before step 1, :func:`require_envelope` reads the runner table,
:data:`ENVELOPE`: per spec node, what the ``flat``, ``tree`` and
``live_shard`` runners refuse by name or run without (ignored values are
reset to their defaults).  A node with no entry is honoured, and the
object engine and loopback live sessions honour every node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Mapping, NamedTuple,
                    Optional, Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adapt.linkstate import LinkStateEstimator
    from repro.adapt.optimizer import TreeOptimizer
    from repro.validate.oracle import InvariantOracle

from repro.core.buffer import DISCARD_IDLE
from repro.membership.churn import ChurnSchedule, random_churn
from repro.metrics.makespan import MakespanTracker
from repro.metrics.occupancy import OccupancyProbe
from repro.metrics.rebuffer import RebufferTracker
from repro.metrics.stats import mean
from repro.net.ipmulticast import (
    BernoulliOutcome,
    FixedHolderCount,
    MulticastOutcome,
    RegionCorrelatedOutcome,
)
from repro.net.latency import HierarchicalLatency
from repro.net.loss import (
    BottleneckLoss,
    GilbertElliottLoss,
    LossModel,
    RegionalOutageLoss,
)
from repro.net.topology import (
    Hierarchy,
    NodeId,
    balanced_tree,
    chain,
    single_region,
    star,
)
from repro.cc.controller import controller_for
from repro.cc.driver import CongestionDriver
from repro.cc.feedback import install_feedback_reporters
from repro.protocol.messages import DataMessage
from repro.protocol.rrmp import MemberGroup, RrmpSimulation, default_sender_node
from repro.scenario.spec import LossSpec, ScenarioSpec, TopologySpec, TrafficSpec
from repro.stability.detector import attach_stability
from repro.workloads.mobility import DistanceLoss, MobilityManager
from repro.workloads.traffic import (
    BurstStream,
    PoissonStream,
    RampStream,
    TrafficGenerator,
    UniformStream,
)


class Limit(NamedTuple):
    """Values of a spec node a runner cannot run: those ``outside(node)``
    picks or, without it, those where one of ``fields`` left its default.
    A refused value names ``fields`` and ``reason``; an ``ignored`` one
    has ``fields`` reset to their defaults."""

    reason: str
    fields: Tuple[str, ...]
    outside: Optional[Callable[[Any], bool]] = None
    ignored: bool = False


_SHARD = "acts on the whole group, which a sharded session does not host; deploy it loopback"
_STATIC = "membership is static"

#: Per spec node, the runners that do not run every value of it.
ENVELOPE: Dict[str, Dict[str, Tuple[Limit, ...]]] = {
    "topology": {"flat": (Limit("flat hops are symmetric",
                                ("inter_up_one_way", "inter_down_one_way")),)},
    "traffic": {
        "flat": (Limit("need uniform with count >= 1", ("kind", "count"),
                       lambda n: n.kind != "uniform" or n.count < 1),),
        "tree": (Limit("need uniform", ("kind",), lambda n: n.kind != "uniform"),),
        "live_shard": (Limit(_SHARD, ("kind",),
                             lambda n: n.kind in ("detect_all", "search_probe")),),
    },
    "loss": {"flat": (Limit("need none or bernoulli", ("kind",),
                            lambda n: n.kind not in ("none", "bernoulli")),)},
    "churn": {"flat": (Limit(_STATIC, ("kind",)),),
              "tree": (Limit(_STATIC, ("kind", "leave_rate", "crash_rate", "join_rate",
                                       "duration", "protect_sender"), ignored=True),),
              "live_shard": (Limit(_SHARD, ("kind",)),)},
    "policy": {
        "flat": (Limit("need two_phase", ("kind",)),
                 Limit("need a give-up bound", ("max_recovery_time",),
                       lambda n: n.max_recovery_time is None),
                 Limit("fixed in the flat recovery model", ("long_term_ttl", "remote_lambda",
                                                            "timer_factor", "max_search_rounds"))),
        "tree": (Limit("the tree has no buffer policy and no give-up",
                       ("kind", "c", "idle_threshold", "long_term_ttl", "hold_time",
                        "remote_lambda", "max_recovery_time", "max_search_rounds"),
                       ignored=True),),
    },
    "fec": {runner: (Limit("no parity pipeline", ("mode",)),) for runner in ("flat", "tree")},
    "congestion": {runner: (Limit("the sender runs open loop", ("controller",)),)
                   for runner in ("flat", "tree")},
    "adapt": {"flat": (Limit("regions never re-parent", ("mode",)),),
              "tree": (Limit("repair servers are fixed", ("mode",)),),
              "live_shard": (Limit(_SHARD, ("mode",)),)},
    "mobility": {"flat": (Limit(_STATIC, ("kind",)),), "tree": (Limit(_STATIC, ("kind",)),),
                 "live_shard": (Limit(_SHARD, ("kind",)),)},
    "playout": {"flat": (Limit("no playout clocks", ("kind",)),)},
    "measurement": {
        "flat": (Limit("no occupancy probes", ("probe_period",)),
                 Limit("flat runs to quiescence, which max_recovery_time bounds",
                       ("horizon", "duration", "drain", "keep_trace"), ignored=True)),
        "tree": (Limit("no invariant oracle; the tree keeps every record",
                       ("oracle", "keep_trace"), ignored=True),),
        "live_shard": (Limit("a sharded session needs a horizon or duration: it cannot "
                             "observe group-wide quiescence", ("horizon", "duration"),
                             lambda n: n.bound is None),),
    },
}

#: What each runner's refusal starts with, before the refused nodes.
_REFUSAL = {"flat": "flat engine cannot run spec {!r}: ",
            "tree": "tree baseline cannot run spec {!r}: ", "live_shard": ""}

_DEFAULT = ScenarioSpec()


def require_envelope(spec: ScenarioSpec, runner: str) -> ScenarioSpec:
    """*spec* as *runner* runs it: what :data:`ENVELOPE` says it ignores
    reset to the defaults.  Raises one ``ValueError`` naming every node it
    refuses; reads dataclass fields only, before anything is built."""
    refused: List[str] = []
    resets: Dict[str, Any] = {}
    for name, row in ENVELOPE.items():
        node, default = getattr(spec, name), getattr(_DEFAULT, name)
        for limit in row.get(runner, ()):
            if limit.outside is not None:
                outside = limit.outside(node)
            else:
                outside = any(getattr(node, f) != getattr(default, f) for f in limit.fields)
            if not outside:
                continue
            if limit.ignored:
                resets[name] = replace(resets.get(name, node), **{
                    f: getattr(default, f) for f in limit.fields})
            else:
                values = ", ".join(f"{f}={getattr(node, f)!r}" for f in limit.fields)
                refused.append(f"spec node {name}: {values} ({limit.reason})")
    if refused:
        raise ValueError(_REFUSAL[runner].format(spec.name) + "; ".join(refused))
    return replace(spec, **resets) if resets else spec


def build_hierarchy(topology: TopologySpec) -> Hierarchy:
    """The spec's region hierarchy (shared with the live runtime)."""
    if topology.kind == "single_region":
        return single_region(topology.n)
    if topology.kind == "chain":
        return chain(list(topology.sizes))
    if topology.kind == "star":
        return star(topology.n, list(topology.sizes))
    return balanced_tree(topology.depth, topology.fanout, topology.n)


def transport_loss_for(loss: LossSpec, hierarchy: Hierarchy) -> Optional[LossModel]:
    """The spec's transport-level loss model (``None`` = lossless).

    The ``outage`` kind is region-aware: the partitioned regions are the
    last ``outage_regions`` non-sender regions in sorted order
    (deterministic in the topology alone).
    """
    if loss.kind == "gilbert_elliott":
        return GilbertElliottLoss(
            p_good_to_bad=loss.p_good_to_bad,
            p_bad_to_good=loss.p_bad_to_good,
            p_good=loss.p_good,
            p_bad=loss.p_bad,
        )
    if loss.kind == "bottleneck":
        return BottleneckLoss(
            capacity=loss.capacity,
            window_ms=loss.window,
            base_loss=loss.receiver_loss,
        )
    if loss.kind == "outage":
        sender_region = hierarchy.region_id_of(default_sender_node(hierarchy))
        candidates = [
            region_id for region_id in sorted(hierarchy.regions)
            if region_id != sender_region
        ]
        affected = set(candidates[-loss.outage_regions:]) if candidates else set()
        return RegionalOutageLoss(
            hierarchy,
            affected,
            start=loss.outage_start,
            duration=loss.outage_duration,
            receiver_loss=loss.receiver_loss,
        )
    return None


def outcome_for(loss: LossSpec, hierarchy: Hierarchy) -> Optional[MulticastOutcome]:
    """The spec's IP-multicast outcome model (``None`` = perfect)."""
    if loss.kind == "bernoulli":
        return BernoulliOutcome(loss.p)
    if loss.kind == "fixed_holders":
        return FixedHolderCount(loss.k)
    if loss.kind == "region_correlated":
        return RegionCorrelatedOutcome(
            hierarchy,
            region_loss=loss.region_loss,
            receiver_loss=loss.receiver_loss,
            sender=default_sender_node(hierarchy),
        )
    # none / gilbert_elliott / bottleneck / outage -> perfect initial
    # multicast (those models live in the transport)
    return None


class NetworkModels(NamedTuple):
    """What a spec says about the wire, built before any group exists."""

    hierarchy: Hierarchy
    latency: HierarchicalLatency
    loss: Optional[LossModel]
    outcome: Optional[MulticastOutcome]
    #: Present when ``spec.mobility`` is enabled; not yet attached.
    mobility: Optional[MobilityManager]


def network_models(spec: ScenarioSpec) -> NetworkModels:
    """Step 1 of the build order, shared by every group-building runner:
    the hierarchy, the latency model, the transport loss
    (distance-scaled under mobility), the sender's multicast outcome and
    the mobility manager."""
    topology = spec.topology
    hierarchy = build_hierarchy(topology)
    mobility = None
    if spec.mobility.enabled:
        # Built against the bare hierarchy so DistanceLoss can wrap the
        # manager into the transport before the group exists.
        mobility = MobilityManager(hierarchy, spec.mobility, spec.seed)
    loss = transport_loss_for(spec.loss, hierarchy)
    if mobility is not None and spec.mobility.distance_loss > 0:
        loss = DistanceLoss(mobility, spec.mobility.distance_loss, base=loss)
    return NetworkModels(
        hierarchy=hierarchy,
        latency=HierarchicalLatency(
            hierarchy,
            intra_one_way=topology.intra_one_way,
            inter_one_way=topology.inter_one_way,
            inter_up_one_way=topology.inter_up_one_way,
            inter_down_one_way=topology.inter_down_one_way,
        ),
        loss=loss,
        outcome=outcome_for(spec.loss, hierarchy),
        mobility=mobility,
    )


def traffic_generator_for(
    traffic: TrafficSpec, spec: ScenarioSpec, streams
) -> Optional[TrafficGenerator]:
    """The spec's stream workload (``None`` for probe/none kinds).

    *streams* is the run's :class:`~repro.sim.randomness.RandomStreams`; Poisson
    arrivals draw from its ``("scenario", "traffic")`` substream, so
    sim and live materializations of one spec schedule identical send
    instants.
    """
    if traffic.kind == "uniform":
        return UniformStream(traffic.count, traffic.interval, start=traffic.start)
    if traffic.kind == "poisson":
        duration = traffic.duration
        if duration <= 0:
            duration = spec.measurement.bound - traffic.start
        rng = streams.stream("scenario", "traffic")
        return PoissonStream(traffic.rate, duration, rng, start=traffic.start)
    if traffic.kind == "burst":
        return BurstStream([tuple(burst) for burst in traffic.bursts])
    if traffic.kind == "ramp":
        return RampStream(
            traffic.count,
            traffic.initial_interval,
            traffic.final_interval,
            start=traffic.start,
        )
    return None


@dataclass
class BuiltScenario:
    """A materialized scenario: the member group plus everything
    :func:`install_workload` put on it.

    ``simulation`` is the group: what :func:`build_group` made (an
    :class:`~repro.protocol.rrmp.RrmpSimulation` or a
    :class:`~repro.tree.rmtp.TreeSimulation`), or — on the live engine —
    the :class:`~repro.live.session.LiveSession` itself.

    Probe workloads (``detect_all``/``search_probe``) expose their cast
    — ``data``, ``holders``, ``bufferers``, ``requester`` — and the two
    readings Figures 6–9 plot: :meth:`holder_buffering_durations` and
    :attr:`search_time`.
    """

    spec: ScenarioSpec
    simulation: MemberGroup
    traffic: Optional[TrafficGenerator] = None
    message_count: int = 0
    churn: Optional[ChurnSchedule] = None
    stability_agents: List = field(default_factory=list)
    #: Invariant oracle (:mod:`repro.validate`), attached when
    #: ``measurement.oracle`` is set; ``finish()`` finalizes it.
    oracle: Optional["InvariantOracle"] = None
    #: Closed-loop send driver (:mod:`repro.cc`), present when the
    #: spec's congestion controller is not ``"none"``.  ``finish()``
    #: refreshes ``message_count`` from its actual send count.
    cc_driver: Optional[CongestionDriver] = None
    cc_reporters: List = field(default_factory=list)
    #: Offered-load arrival count (equals ``message_count`` unless a
    #: congestion controller left arrivals unsent at the horizon).
    offered_count: int = 0
    total_probe: Optional[OccupancyProbe] = None
    node_probe: Optional[OccupancyProbe] = None
    #: Delivery-span tracker (:mod:`repro.metrics.makespan`), attached
    #: when the trace is being emitted; pure subscriber, never scheduled.
    makespan: Optional[MakespanTracker] = None
    #: Adaptive-tree pieces (:mod:`repro.adapt`), present only when
    #: ``spec.adapt`` is enabled.
    linkstate: Optional["LinkStateEstimator"] = None
    adapt: Optional["TreeOptimizer"] = None
    #: Waypoint-mobility manager (:mod:`repro.workloads.mobility`),
    #: present when ``spec.mobility`` is enabled; its movement epochs
    #: are pre-scheduled as a finite set, so nobody need stop it.
    mobility: Optional[MobilityManager] = None
    #: Playout-deadline tracker (:mod:`repro.metrics.rebuffer`),
    #: attached when ``spec.playout`` is enabled and the trace is being
    #: emitted; pure subscriber, never scheduled.
    rebuffer: Optional[RebufferTracker] = None
    data: Optional[DataMessage] = None
    holders: List[NodeId] = field(default_factory=list)
    bufferers: List[NodeId] = field(default_factory=list)
    requester: Optional[NodeId] = None
    #: Largest single-member occupancy any probe tick observed.
    peak_node_occupancy: float = 0.0

    def holder_buffering_durations(self) -> List[float]:
        """Short-term buffering time of each ``detect_all`` holder
        (receipt → idle discard), the quantity Figure 6 averages.

        Holders still buffering (e.g. promoted to long-term) are
        excluded; run with ``policy.c = 0`` — as §4 does implicitly —
        to measure every holder.
        """
        durations: List[float] = []
        for node in self.holders:
            buffer = self.simulation.members[node].policy.buffer
            durations.extend(buffer.durations(reason=DISCARD_IDLE))
        return durations

    @property
    def search_time(self) -> Optional[float]:
        """``search_probe``: the remote request's arrival in the searched
        region → a bufferer serving the repair (Figures 8/9).

        0 when the request lands directly on a bufferer (footnote 5);
        ``None`` if it was not served within the run.
        """
        trace = self.simulation.trace
        arrival = trace.first("remote_request_received")
        served = trace.first("remote_request_served")
        if arrival is None or served is None:
            return None
        return served.time - arrival.time

    def install_probes(self, period: float) -> None:
        """Sample the group's total occupancy and its largest
        single-member occupancy every *period* ms (build step 5)."""
        group = self.simulation
        self.total_probe = OccupancyProbe(group.sim, group.buffer_occupancy, period=period)

        def sample_peak() -> float:
            per_node = group.occupancy_by_node()
            current = max(per_node.values()) if per_node else 0
            self.peak_node_occupancy = max(self.peak_node_occupancy, float(current))
            return float(current)

        self.node_probe = OccupancyProbe(group.sim, sample_peak, period=period)

    def stop_periodic(self) -> None:
        """Stop everything installed here that re-arms itself: the CC
        send loop and feedback reporters, the tree optimizer, occupancy
        probes and stability agents.  Idempotent."""
        if self.cc_driver is not None:
            self.cc_driver.stop()
        for reporter in self.cc_reporters:
            reporter.stop()
        if self.adapt is not None:
            self.adapt.stop()
        for probe in (self.total_probe, self.node_probe):
            if probe is not None:
                probe.stop()
        for agent in self.stability_agents:
            agent.stop()

    def finish(self) -> None:
        """The measurement end, once the clock has been advanced."""
        self.stop_periodic()
        if self.cc_driver is not None:
            # Under congestion control ``message_count`` is what the
            # paced sender actually transmitted, not the offered load.
            self.message_count = self.cc_driver.sent
        elif self.traffic is not None:
            sender = self.simulation.sender
            if sender is not None and not sender.member.alive:
                # The sender left or crashed, which ended the session:
                # count what it multicast, not what was scheduled.
                self.message_count = sender.max_seq
        if self.oracle is not None:
            self.oracle.finish()

    def plan(self) -> Iterator[Optional[float]]:
        """The run's steps: a virtual time to advance to, or ``None`` for
        "until idle" (the rule is :class:`MeasurementSpec`'s)."""
        measurement = self.spec.measurement
        if measurement.bound is not None:
            yield measurement.bound
            if not measurement.drain:
                return
            self.stop_periodic()
        yield from self._settle()
        self.stop_periodic()
        if self.simulation.sender is not None:
            self.simulation.sender.stop()  # the heartbeat
        yield None

    def _settle(self) -> Iterator[float]:
        """Heartbeat rounds while a send is due or an alive member has
        not received or detected the sender's last seq, but no more
        rounds without news than the stream took.  Without a heartbeat
        only sends are waited for, a feedback interval at a time."""
        group, heartbeat = self.simulation, self.spec.policy.session_interval
        clock, sender = group.sim, group.sender
        step = heartbeat or self.spec.congestion.feedback_interval
        patience = None
        while sender is not None and sender.member.alive:
            if self.cc_driver is not None:
                sending = not self.cc_driver.done
            else:
                sending = self.traffic is not None and sender.max_seq < self.message_count
            if not sending:
                if heartbeat is None:
                    return
                behind = sum(1 for member in group.alive_members()
                             if not member.gap.knows(sender.max_seq))
                if patience is None:  # the stream has just ended
                    patience, fewest, quiet = max(1, math.ceil(clock.now / step)), behind, 0
                elif behind < fewest:
                    fewest, quiet = behind, 0
                else:
                    quiet += 1
                if behind == 0 or quiet >= patience:
                    return
            yield clock.now + step

    def run(self) -> "BuiltScenario":
        """Drive :meth:`plan` on the simulated clock and finish."""
        sim = self.simulation.sim
        for until in self.plan():
            if until is None:
                sim.drain()
            else:
                sim.run(until=until)
        self.finish()
        return self

    def summary(self) -> dict:
        """Headline metrics of a simulated run (the ``scenarios run``
        payload)."""
        sim = self.simulation.sim
        return self.summarize(
            {}, {"events_fired": sim.events_fired, "sim_time_ms": sim.now}
        )

    def summarize(self, identity: Mapping, engine: Mapping) -> dict:
        """The summary both engines print.  *identity* lands after the
        spec's own identity keys and *engine* after the traffic counts —
        where the live payload has always carried its ``mode``/
        ``speedup`` and its socket and clock readings.
        ``reliability_violations`` is the trace log's tally and holds
        with ``keep_trace`` off; ``recoveries`` and
        ``mean_recovery_latency_ms`` need the retained records."""
        group = self.simulation
        latencies = group.recovery_latencies()
        result = {
            "scenario": self.spec.name,
            "seed": self.spec.seed,
            "digest": self.spec.digest(),
            **identity,
            "members": len(group.members),
            "alive_members": len(group.alive_members()),
            "messages": self.message_count,
            "delivered_fraction": group.delivered_fraction(self.message_count),
            "recoveries": len(latencies),
            "mean_recovery_latency_ms": mean(latencies) if latencies else 0.0,
            "reliability_violations": group.violation_count(),
            "control_messages": group.control_message_count(),
            "data_messages": group.data_message_count(),
            **engine,
        }
        if self.total_probe is not None:
            result["avg_total_occupancy"] = self.total_probe.average()
            result["peak_node_occupancy"] = self.peak_node_occupancy
        if self.oracle is not None:
            result["invariant_violations"] = self.oracle.violation_count
        if self.makespan is not None and self.makespan.delivery_count:
            result.update(self.makespan.summary())
        if self.mobility is not None:
            result.update(self.mobility.summary())
        if self.rebuffer is not None:
            result.update(self.rebuffer.summary())
        if self.adapt is not None:
            result["adapt_updates"] = self.adapt.update_count
            result["adapt_reparents"] = self.adapt.reparent_count
        if self.cc_driver is not None:
            result["offered_messages"] = self.offered_count
            result["cc_controller"] = self.cc_driver.controller.name
            result["cc_final_interval_ms"] = self.cc_driver.controller.interval()
        return result


def inject_detect_all(group, traffic: TrafficSpec):
    """The Figure 6/7 workload: k holders, everyone else detects at once.

    *group* is any wired member group (an
    :class:`~repro.protocol.rrmp.RrmpSimulation` or a live session)
    exposing ``hierarchy``, ``members``, ``sender`` and ``streams``.
    Returns ``(data, holders)``.  :class:`ScenarioSpec` has checked that
    the group has ``holders`` members.
    """
    hierarchy = group.hierarchy
    data = DataMessage(seq=1, sender=group.sender.node_id)
    rng = group.streams.stream("scenario", "holders")
    holders = sorted(rng.sample(hierarchy.nodes, traffic.holders))
    holder_set = set(holders)
    for node in hierarchy.nodes:
        member = group.members[node]
        if node in holder_set:
            member.inject_receive(data, via="multicast")
        else:
            member.inject_loss_detection(data.seq)
    return data, holders


def inject_search_probe(group, traffic: TrafficSpec):
    """The Figure 8/9 workload: b bufferers, one downstream requester.

    Same *group* contract as :func:`inject_detect_all`; returns
    ``(data, bufferers, requester)``.  :class:`ScenarioSpec` has checked
    that there are two regions and that the first has ``bufferers``
    members.
    """
    hierarchy = group.hierarchy
    region_ids = sorted(hierarchy.regions)
    region = hierarchy.regions[region_ids[0]]
    requester_region = hierarchy.regions[region_ids[-1]]
    requester = requester_region.members[0]
    data = DataMessage(seq=1, sender=group.sender.node_id)
    rng = group.streams.stream("scenario", "bufferers")
    chosen = sorted(rng.sample(region.members, traffic.bufferers))
    chosen_set = set(chosen)
    for node in region.members:
        member = group.members[node]
        if node in chosen_set:
            member.install_long_term(data)
        else:
            member.force_received(data)
    group.members[requester].inject_loss_detection(data.seq)
    return data, chosen, requester


def install_workload(built: BuiltScenario) -> BuiltScenario:
    """Install ``built.spec``'s workload on the group ``built.simulation``.

    Steps 3-9 of the module's build order, written against the
    :class:`~repro.protocol.rrmp.MemberGroup` surface (``sim`` is any
    clock with ``now``/``at``/``after``), so the simulated and the live
    engine install the same things in the same order from the same
    named RNG streams.  A live shard, which may not host the sender, has
    had what acts on the whole group refused (:func:`require_envelope`).
    """
    spec = built.spec
    group = built.simulation
    sender = group.sender
    trace = group.trace

    if trace.enabled:
        # Pure subscriber: schedules nothing, so event counts and trace
        # digests are untouched.  Gated on a trace that is already being
        # emitted because the first subscription flips its hot-path
        # ``enabled`` guard, which a streaming (keep_trace=False) sweep
        # relies on.
        built.makespan = MakespanTracker().attach(trace)

    if spec.playout.enabled and trace.enabled:
        # Same pure-subscriber contract as the makespan tracker.  The
        # oracle below is handed the tracker, so its rebuffer-accounting
        # invariant can cross-check the counts.
        built.rebuffer = RebufferTracker(
            interval=spec.playout.interval,
            startup_delay=spec.playout.startup_delay,
        ).attach(trace)

    if spec.adapt.enabled:
        # Imported lazily for the same reason as the oracle below.
        from repro.adapt.linkstate import LinkStateEstimator
        from repro.adapt.optimizer import TreeOptimizer

        up = spec.topology.inter_up_one_way
        down = spec.topology.inter_down_one_way
        inter = spec.topology.inter_one_way
        prior_rtt = (inter if up is None else up) + (inter if down is None else down)
        built.linkstate = LinkStateEstimator(
            group.hierarchy,
            ewma_alpha=spec.adapt.ewma_alpha,
            default_rtt_ms=prior_rtt,
        ).attach(trace)
        built.adapt = TreeOptimizer(
            group.sim,
            group.hierarchy,
            built.linkstate,
            trace,
            update_interval=spec.adapt.update_interval,
            hysteresis=spec.adapt.hysteresis,
            max_reparents=spec.adapt.max_reparents,
        )
        built.adapt.start()

    if spec.measurement.oracle:
        # Attach before probes/traffic so the oracle observes every
        # record, including build-time workload injections.  Imported
        # lazily: the spec layer must stay cheap to import in sweep
        # workers, and repro.validate pulls in the full oracle stack.
        from repro.validate.oracle import InvariantOracle

        built.oracle = InvariantOracle().attach(group, spec.congestion, built.rebuffer)

    if spec.policy.kind == "stability":
        built.stability_agents = attach_stability(list(group.members.values()))

    if spec.measurement.probe_period is not None:
        built.install_probes(spec.measurement.probe_period)

    flush_fec = spec.fec.enabled and spec.fec.flush_after is not None
    if spec.traffic.kind == "detect_all":
        built.data, built.holders = inject_detect_all(group, spec.traffic)
        built.message_count = 1
    elif spec.traffic.kind == "search_probe":
        built.data, built.bufferers, built.requester = inject_search_probe(
            group, spec.traffic
        )
        built.message_count = 1
    else:
        generator = traffic_generator_for(spec.traffic, spec, group.streams)
        if generator is not None:
            built.traffic = generator
            congested = spec.congestion.enabled
            if sender is None:
                # The sender lives in another shard; still consume the
                # arrival draw so Poisson streams stay aligned with the
                # sender's schedule.
                built.message_count = generator.arrival_count()
            elif congested:

                def _on_stream_complete(now: float) -> None:
                    if flush_fec:
                        group.sim.at(now + spec.fec.flush_after, sender.flush_parity)

                built.cc_driver = CongestionDriver(
                    group.sim,
                    sender,
                    generator,
                    controller_for(spec.congestion),
                    trace=trace,
                    on_complete=_on_stream_complete,
                )
                built.cc_driver.start()
            else:
                built.message_count = generator.schedule(group)
            if congested:
                # The driver lives with the sender, but feedback flows
                # from every shard's receivers.
                built.cc_reporters = install_feedback_reporters(
                    group.members.values(),
                    default_sender_node(group.hierarchy),
                    spec.congestion.feedback_interval,
                )
                built.offered_count = generator.arrival_count()
                built.message_count = built.offered_count

    if (
        flush_fec
        and built.cc_driver is None
        and sender is not None
        and built.traffic is not None
        and built.message_count > 0
    ):
        group.sim.at(
            built.traffic.end_time() + spec.fec.flush_after, sender.flush_parity
        )

    if spec.churn.kind == "random":
        built.churn = random_churn(
            group,
            group.streams.stream("scenario", "churn"),
            duration=spec.churn.duration or spec.measurement.bound,
            leave_rate=spec.churn.leave_rate,
            crash_rate=spec.churn.crash_rate,
            join_rate=spec.churn.join_rate,
            protect=[sender.node_id] if spec.churn.protect_sender else [],
        )

    if built.mobility is not None:
        built.mobility.attach(group, spec.mobility.duration or spec.measurement.bound)
    return built


def build_group(spec: ScenarioSpec, group: Callable[..., MemberGroup],
                **options: Any) -> BuiltScenario:
    """The build order on a simulated *group* class (:class:`RrmpSimulation`,
    :class:`~repro.tree.rmtp.TreeSimulation`) taking the hierarchy, the
    spec's models and *options*."""
    models = network_models(spec)
    simulation = group(models.hierarchy, config=spec.policy, seed=spec.seed,
                       latency=models.latency, loss=models.loss, outcome=models.outcome,
                       **options)
    return install_workload(
        BuiltScenario(spec=spec, simulation=simulation, mobility=models.mobility)
    )


def build_scenario(spec: ScenarioSpec) -> BuiltScenario:
    """Materialize *spec*: simulation built, traffic and churn scheduled."""
    return build_group(spec, RrmpSimulation, fec=spec.fec,
                       keep_trace=spec.measurement.keep_trace)
