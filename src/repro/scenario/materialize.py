"""Materialize a :class:`~repro.scenario.spec.ScenarioSpec` into a run.

There is one path from a spec to a wired, loaded member group, and both
engines walk it: :func:`network_models` builds what must exist before
the group (latency, transport loss, sender outcome, mobility manager),
the engine builds its group — :func:`build_scenario` an
:class:`~repro.protocol.rrmp.RrmpSimulation`,
:class:`~repro.live.session.LiveSession` its members over UDP — and
:func:`install_workload` installs the paper's §3–§4 workload on it
through the :class:`~repro.protocol.rrmp.MemberGroup` surface alone.
:class:`BuiltScenario` then stops, finalizes and summarizes the run the
same way whichever clock drove it.

Determinism contract: for a given spec the build performs the exact
same construction steps, in the same order, with the same named RNG
streams as the historical hand-assembled setups — so migrating an
experiment onto specs leaves its tables byte-identical.  Build order:

1. hierarchy, config, latency, transport loss, outcome, policy factory;
2. the group itself;
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Mapping, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adapt import LinkStateEstimator, TreeOptimizer
    from repro.validate.oracle import InvariantOracle

from repro.core.policies import (
    BufferPolicy,
    FixedTimePolicy,
    NeverDiscardPolicy,
    NoBufferPolicy,
)
from repro.hashing.deterministic import HashBuffererPolicy
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
from repro.cc import CongestionDriver, controller_for, install_feedback_reporters
from repro.protocol.config import FEC_OFF, CongestionConfig, RrmpConfig
from repro.protocol.messages import DataMessage
from repro.protocol.rrmp import MemberGroup, RrmpSimulation, default_sender_node
from repro.scenario.spec import (
    CongestionSpec,
    FecSpec,
    LossSpec,
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
)
from repro.stability.detector import StabilityBufferPolicy, attach_stability
from repro.workloads.mobility import DistanceLoss, MobilityManager
from repro.workloads.traffic import (
    BurstStream,
    PoissonStream,
    RampStream,
    TrafficGenerator,
    UniformStream,
)

PolicyFactory = Callable[[NodeId], BufferPolicy]


def build_hierarchy(topology: TopologySpec) -> Hierarchy:
    """The spec's region hierarchy (shared with the live runtime)."""
    if topology.kind == "single_region":
        return single_region(topology.n)
    if topology.kind == "chain":
        return chain(list(topology.sizes))
    if topology.kind == "star":
        return star(topology.n, list(topology.sizes))
    return balanced_tree(topology.depth, topology.fanout, topology.n)


def build_congestion_config(congestion: Optional[CongestionSpec]) -> CongestionConfig:
    """The protocol-level congestion sub-config a spec node describes."""
    if congestion is None:
        return CongestionConfig()
    return CongestionConfig(
        controller=congestion.controller,
        target_loss=congestion.target_loss,
        min_rate=congestion.min_rate,
        max_rate=congestion.max_rate,
        feedback_interval=congestion.feedback_interval,
        parity_min=congestion.parity_min,
        parity_max=congestion.parity_max,
    )


def build_config(policy: PolicySpec, fec: FecSpec,
                 congestion: Optional[CongestionSpec] = None) -> RrmpConfig:
    """Protocol configuration from the policy, FEC and congestion specs."""
    return RrmpConfig(
        remote_lambda=policy.remote_lambda,
        long_term_c=policy.c,
        idle_threshold=policy.idle_threshold,
        timer_factor=policy.timer_factor,
        session_interval=policy.session_interval,
        long_term_ttl=policy.long_term_ttl,
        max_recovery_time=policy.max_recovery_time,
        max_search_rounds=policy.max_search_rounds,
        fec_mode=fec.mode,
        fec_block_size=fec.block_size,
        fec_parity=fec.parity,
        congestion=build_congestion_config(congestion),
    )


def policy_factory_for(policy: PolicySpec) -> Optional[PolicyFactory]:
    """``None`` selects the facade's default (two-phase from config)."""
    if policy.kind == "two_phase":
        return None
    if policy.kind == "fixed_time":
        hold = float(policy.hold_time)
        return lambda _n: FixedTimePolicy(hold)
    if policy.kind == "stability":
        return lambda _n: StabilityBufferPolicy()
    if policy.kind == "hash":
        c = float(policy.c)
        return lambda _n: HashBuffererPolicy(c)
    if policy.kind == "never_discard":
        return lambda _n: NeverDiscardPolicy()
    return lambda _n: NoBufferPolicy()


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

    latency: HierarchicalLatency
    loss: Optional[LossModel]
    outcome: Optional[MulticastOutcome]
    #: Present when ``spec.mobility`` is enabled; not yet attached.
    mobility: Optional[MobilityManager]


def network_models(spec: ScenarioSpec, hierarchy: Hierarchy) -> NetworkModels:
    """Step 1 of the build order, shared by every engine: the latency
    model, the transport loss (distance-scaled under mobility), the
    sender's multicast outcome and the mobility manager."""
    topology = spec.topology
    mobility = None
    if spec.mobility.enabled:
        # Built against the bare hierarchy so DistanceLoss can wrap the
        # manager into the transport before the group exists.
        mobility = MobilityManager(hierarchy, spec.mobility, spec.seed)
    loss = transport_loss_for(spec.loss, hierarchy)
    if mobility is not None and spec.mobility.distance_loss > 0:
        loss = DistanceLoss(mobility, spec.mobility.distance_loss, base=loss)
    return NetworkModels(
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

    *streams* is the run's :class:`~repro.sim.RandomStreams`; Poisson
    arrivals draw from its ``("scenario", "traffic")`` substream, so
    sim and live materializations of one spec schedule identical send
    instants.
    """
    if traffic.kind == "uniform":
        return UniformStream(traffic.count, traffic.interval, start=traffic.start)
    if traffic.kind == "poisson":
        duration = traffic.duration
        if duration <= 0:
            horizon = spec.measurement.horizon or spec.measurement.duration
            if horizon is None:
                raise ValueError(
                    "poisson traffic needs a duration or a measurement horizon"
                )
            duration = horizon - traffic.start
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

    ``simulation`` is the group: the
    :class:`~repro.protocol.rrmp.RrmpSimulation` that
    :func:`build_scenario` made, or — on the live engine — the
    :class:`~repro.live.session.LiveSession` itself.

    Probe workloads (``detect_all``/``search_probe``) expose their cast
    — ``data``, ``holders``, ``bufferers``, ``requester`` — so result
    wrappers like :class:`repro.workloads.scenarios.SearchResult` can
    compute their figures.
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
    _peak_node: float = 0.0

    @property
    def peak_node_occupancy(self) -> float:
        """Largest single-member occupancy any probe tick observed."""
        return self._peak_node

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

    def quiesce(self) -> None:
        """Stop the periodic machinery *and* the session heartbeat, or
        the group's clock never runs dry."""
        self.stop_periodic()
        if self.simulation.sender is not None:
            self.simulation.sender.stop()

    def finish(self) -> None:
        """The measurement end, once the clock has been advanced."""
        self.stop_periodic()
        if self.cc_driver is not None:
            # Under congestion control ``message_count`` is what the
            # paced sender actually transmitted, not the offered load.
            self.message_count = self.cc_driver.sent
        if self.oracle is not None:
            self.oracle.finish()

    def run(self) -> "BuiltScenario":
        """Advance a simulated group to the measurement end and finish."""
        measurement = self.spec.measurement
        simulation = self.simulation
        bounded = False
        if measurement.horizon is not None:
            simulation.run(until=measurement.horizon)
            bounded = True
        elif measurement.duration is not None:
            simulation.run(duration=measurement.duration)
            bounded = True
        if measurement.drain or not bounded:
            # Drain: the explicit ``drain`` flag, possibly after a
            # bounded run, or the no-bound default.
            self.quiesce()
            simulation.sim.drain()
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
    Returns ``(data, holders)``.
    """
    hierarchy = group.hierarchy
    k = traffic.holders
    if k > len(hierarchy.nodes):
        raise ValueError(
            f"detect_all holders must be <= group size, got k={k}, "
            f"n={len(hierarchy.nodes)}"
        )
    data = DataMessage(seq=1, sender=group.sender.node_id)
    rng = group.streams.stream("scenario", "holders")
    holders = sorted(rng.sample(hierarchy.nodes, k))
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
    ``(data, bufferers, requester)``.
    """
    hierarchy = group.hierarchy
    region_ids = sorted(hierarchy.regions)
    if len(region_ids) < 2:
        raise ValueError("search_probe needs at least two regions")
    region = hierarchy.regions[region_ids[0]]
    requester_region = hierarchy.regions[region_ids[-1]]
    if not requester_region.members:
        raise ValueError("search_probe requester region is empty")
    if traffic.bufferers > region.size:
        raise ValueError(
            f"bufferers must be in [0, n], got {traffic.bufferers}"
        )
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


def _active_window(duration: float, spec: ScenarioSpec, what: str) -> float:
    """How long a timed spec node runs: its own ``duration``, else the
    measurement horizon."""
    if duration > 0:
        return duration
    window = spec.measurement.horizon or spec.measurement.duration
    if window is None:
        raise ValueError(f"{what} needs a duration or a horizon")
    return window


def install_workload(built: BuiltScenario) -> BuiltScenario:
    """Install ``built.spec``'s workload on the group ``built.simulation``.

    Steps 3-9 of the module's build order, written against the
    :class:`~repro.protocol.rrmp.MemberGroup` surface (``sim`` is any
    clock with ``now``/``at``/``after``), so the simulated and the live
    engine install the same things in the same order from the same
    named RNG streams.  A live shard hosts a subset of the members and
    maybe not the sender: spec nodes that act on the whole group are
    refused there by name.
    """
    spec = built.spec
    group = built.simulation
    config = group.config
    sender = group.sender
    trace = group.trace
    if group.sharded:
        for node, wanted in (
            (f"traffic ({spec.traffic.kind})",
             spec.traffic.kind in ("detect_all", "search_probe")),
            ("churn", spec.churn.kind == "random"),
            ("mobility", spec.mobility.enabled),
            ("adapt", spec.adapt.enabled),
        ):
            if wanted:
                raise ValueError(
                    f"spec node {node} acts on the whole group and cannot "
                    "run in a sharded session; deploy it loopback"
                )

    if trace.enabled:
        # Pure subscriber: schedules nothing, so event counts and trace
        # digests are untouched.  Gated on a trace that is already being
        # emitted because the first subscription flips its hot-path
        # ``enabled`` guard, which a streaming (keep_trace=False) sweep
        # relies on.
        built.makespan = MakespanTracker().attach(trace)

    if spec.playout.enabled and trace.enabled:
        # Same pure-subscriber contract as the makespan tracker.  The
        # spec and tracker are stashed on the group so the oracle's
        # rebuffer-accounting invariant can cross-check the counts.
        built.rebuffer = RebufferTracker(
            interval=spec.playout.interval,
            startup_delay=spec.playout.startup_delay,
        ).attach(trace)
        group.playout_spec = spec.playout
        group.rebuffer_tracker = built.rebuffer

    if spec.adapt.enabled:
        # Imported lazily for the same reason as the oracle below.
        from repro.adapt import LinkStateEstimator, TreeOptimizer

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

        built.oracle = InvariantOracle().attach(group)

    if spec.policy.kind == "stability":
        built.stability_agents = attach_stability(list(group.members.values()))

    if spec.measurement.probe_period is not None:
        period = spec.measurement.probe_period
        built.total_probe = OccupancyProbe(
            group.sim, group.buffer_occupancy, period=period
        )

        def sample_peak() -> float:
            per_node = group.occupancy_by_node()
            current = max(per_node.values()) if per_node else 0
            built._peak_node = max(built._peak_node, float(current))
            return float(current)

        built.node_probe = OccupancyProbe(group.sim, sample_peak, period=period)

    flush_fec = config.fec_mode != FEC_OFF and spec.fec.flush_after is not None
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
            congested = config.congestion.enabled
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
                    controller_for(config.congestion),
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
                    config.congestion.feedback_interval,
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
            duration=_active_window(spec.churn.duration, spec, "random churn"),
            leave_rate=spec.churn.leave_rate,
            crash_rate=spec.churn.crash_rate,
            join_rate=spec.churn.join_rate,
            protect=[sender.node_id] if spec.churn.protect_sender else [],
        )

    if built.mobility is not None:
        built.mobility.attach(
            group, _active_window(spec.mobility.duration, spec, "mobility")
        )
    return built


def build_scenario(spec: ScenarioSpec) -> BuiltScenario:
    """Materialize *spec*: simulation built, traffic and churn scheduled."""
    hierarchy = build_hierarchy(spec.topology)
    models = network_models(spec, hierarchy)
    simulation = RrmpSimulation(
        hierarchy,
        config=build_config(spec.policy, spec.fec, spec.congestion),
        seed=spec.seed,
        latency=models.latency,
        loss=models.loss,
        outcome=models.outcome,
        policy_factory=policy_factory_for(spec.policy),
        keep_trace=spec.measurement.keep_trace,
    )
    return install_workload(
        BuiltScenario(spec=spec, simulation=simulation, mobility=models.mobility)
    )
