"""Materialize a :class:`~repro.scenario.spec.ScenarioSpec` over real UDP.

:class:`LiveSession` is the live engine's half of the one path in
:mod:`repro.scenario.materialize`: it builds the group — members over an
asyncio socket on a wall clock instead of the event engine — and hands
it to the same :func:`~repro.scenario.materialize.install_workload` the
simulator uses, so every spec node (traffic, congestion control, FEC
flush, churn, mobility, playout, adaptive tree, probes, oracle) is
installed, stopped, finalized and summarized by one piece of code.
Because the session exposes the :class:`~repro.protocol.rrmp.MemberGroup`
surface plus ``sim``/``trace``/``config``/``hierarchy``, everything
written against the simulation facade — the invariant oracle, traffic
generators, churn schedules, metrics snapshots — drives a live run
unchanged.

Two deployment shapes share the class:

* **Loopback** (default): every member of the hierarchy lives in this
  process on one socket.  Datagrams still traverse the kernel's UDP
  stack.  This is what the differential harness and CI smoke use.
* **Sharded**: ``local_nodes`` restricts which members are built here
  and ``directory`` maps every node id to its owner's address — one
  process per member (or per region) on real hosts.  Spec nodes that
  act on the whole group (probe workloads, churn, mobility, the
  adaptive tree) are refused by name when sharded.

Determinism: protocol decisions (holder draws, long-term coin flips,
request targets) come from the same seeded streams as the simulator,
so a live run of a lossless spec delivers exactly the simulated
delivery set.  What *does* differ is physical timing and therefore the
interleaving of loss-model draws — the differential harness compares
normalized delivery digests, not wall-clock traces, for this reason.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Set

from repro.live.clock import LiveClock
from repro.live.transport import Address, LiveTransport
from repro.metrics.makespan import MakespanTracker
from repro.metrics.snapshot import DeliveryCounter, MetricsSnapshot, take_snapshot
from repro.net.topology import NodeId
from repro.protocol.member import RrmpMember
from repro.protocol.rrmp import (
    MemberGroup,
    default_sender_node,
    two_phase_policy_factory,
)
from repro.protocol.sender import RrmpSender
from repro.scenario.materialize import (
    BuiltScenario,
    build_config,
    build_hierarchy,
    install_workload,
    network_models,
    policy_factory_for,
)
from repro.scenario.spec import ScenarioSpec
from repro.sim import RandomStreams, TraceLog

#: How often quiescence is polled, in real seconds.
_QUIESCENCE_POLL_S = 0.005

#: Consecutive unchanged polls required before the group counts as
#: quiescent — one poll could race a datagram sitting in the socket
#: buffer that is about to arm new timers.
_QUIESCENCE_SETTLE = 3


class LiveSession(MemberGroup):
    """One RRMP group running a scenario spec over asyncio UDP.

    Usage::

        session = LiveSession(spec, speedup=10.0)
        oracle = InvariantOracle().attach(session)
        await session.start()
        await session.run()
        oracle.finish()
        await session.close()

    (Or :func:`run_spec_live`, which sequences exactly that.)
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        speedup: float = 1.0,
        local_nodes: Optional[Set[NodeId]] = None,
        directory: Optional[Dict[NodeId, Address]] = None,
        bind: Address = ("127.0.0.1", 0),
        hold: bool = False,
    ) -> None:
        self.spec = spec
        #: With ``hold=True``, :meth:`start` leaves the clock frozen at
        #: zero until :meth:`release_clock` — how sharded deployments
        #: line up their epochs: every process binds and builds, *then*
        #: all release inside the same window.
        self.hold = hold
        self.hierarchy = build_hierarchy(spec.topology)
        self.hierarchy.validate()
        self.config = build_config(spec.policy, spec.fec, spec.congestion)
        self.streams = RandomStreams(spec.seed)
        self.trace = TraceLog(keep_records=spec.measurement.keep_trace)
        # Subscribed up front, so the trace is always being emitted and
        # the installer's pure subscribers (makespan, playout) attach
        # whether or not records are kept.
        self.deliveries = DeliveryCounter(self.trace)
        # Held until start() finishes: building members and injecting
        # the workload takes real milliseconds, and a running clock
        # would feed that setup time straight into the protocol's first
        # timers (a 40 ms idle threshold can expire before the last
        # member even exists).  The simulator gets this for free — all
        # construction happens "at" t=0.
        self.sim = LiveClock(speedup=speedup, held=True)
        models = network_models(spec, self.hierarchy)
        self.latency = models.latency
        self.network = LiveTransport(
            self.sim,
            models.latency,
            loss=models.loss,
            streams=self.streams,
            directory=directory,
        )
        self._outcome = models.outcome
        self._local_nodes = set(local_nodes) if local_nodes is not None else None
        self._bind = bind
        self._policy_factory = (
            policy_factory_for(spec.policy) or two_phase_policy_factory(self.config)
        )
        self.members: Dict[NodeId, RrmpMember] = {}
        self.sender: Optional[RrmpSender] = None
        #: Everything :func:`install_workload` puts on this group at
        #: :meth:`start` — traffic, CC loop, churn, trackers, counts.
        self.built = BuiltScenario(spec=spec, simulation=self,
                                   mobility=models.mobility)
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def sharded(self) -> bool:
        """Whether this session hosts only a subset of the group."""
        return self._local_nodes is not None

    @property
    def message_count(self) -> int:
        """Messages sent so far by the installed workload."""
        return self.built.message_count

    @property
    def makespan(self) -> Optional[MakespanTracker]:
        """The installed delivery-span tracker (``None`` before start)."""
        return self.built.makespan

    async def start(self) -> Address:
        """Open the socket, build local members, install the workload.

        Returns the bound address (useful with an ephemeral port).
        Raises :class:`ValueError` naming the spec node when the spec
        asks a shard for something only a whole group can do.
        """
        if self._started:
            raise RuntimeError("session already started")
        self._started = True
        address = await self.network.open(*self._bind)
        for node in self.hierarchy.nodes:
            if self._local_nodes is None or node in self._local_nodes:
                self._new_member(node)
        sender_node = default_sender_node(self.hierarchy)
        if sender_node in self.members:
            self.sender = RrmpSender(self.members[sender_node],
                                     outcome=self._outcome)
        install_workload(self.built)
        if not self.hold:
            self.sim.release()  # setup done: virtual time starts now
        return address

    def release_clock(self) -> None:
        """Start virtual time on a session constructed with ``hold=True``.

        A shard whose clock starts at its own ``start()`` is skewed
        against its peers by however long the operator took to launch
        the next process — a horizon-bounded shard can finish before a
        late-starting sender shard transmits at all.  Holding past
        ``start()`` lets all shards bind first and release together.
        """
        self.sim.release()

    async def run(self) -> float:
        """Execute the spec's measurement plan; returns the final virtual time.

        The wall-clock twin of
        :meth:`repro.scenario.materialize.BuiltScenario.run`: sleep to
        the horizon/duration if bounded, then — for draining (or
        unbounded) specs — quiesce and wait for the group to settle,
        and finish the build the same way the simulator does.
        """
        measurement = self.spec.measurement
        bounded = False
        if self.sharded and measurement.horizon is None \
                and measurement.duration is None:
            # One shard cannot observe group-wide quiescence: an idle
            # shard would "drain" instantly and exit before the sender
            # shard transmits anything.
            raise ValueError(
                "sharded sessions need a horizon or duration; "
                "group-wide quiescence is not observable from one shard"
            )
        if measurement.horizon is not None:
            await self.sim.sleep_until(measurement.horizon)
            bounded = True
        elif measurement.duration is not None:
            await self.sim.sleep(measurement.duration)
            bounded = True
        if measurement.drain or not bounded:
            self.built.quiesce()
            await self.wait_quiescent()
        self.built.finish()
        return self.sim.now

    async def wait_quiescent(self, timeout_s: float = 30.0) -> None:
        """Wait until no timers are pending and no traffic is moving.

        Quiescence must hold for several consecutive polls: a single
        ``pending_events == 0`` reading can race a datagram in the
        socket buffer that is about to arm new timers.  Raises
        :class:`TimeoutError` after *timeout_s* real seconds — a group
        that will not settle is a bug worth failing loudly on.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        settled = 0
        previous = None
        while True:
            stats = self.network.stats
            state = (self.sim.pending_events, stats.sent, stats.delivered,
                     stats.dropped)
            if state[0] == 0 and state == previous:
                settled += 1
                if settled >= _QUIESCENCE_SETTLE:
                    return
            else:
                settled = 0
            previous = state
            if loop.time() > deadline:
                raise TimeoutError(
                    f"group did not quiesce within {timeout_s}s: "
                    f"{self.sim.pending_events} timers pending, "
                    f"stats={stats.sent}/{stats.delivered}/{stats.dropped}"
                )
            await asyncio.sleep(_QUIESCENCE_POLL_S)

    async def close(self) -> None:
        """Tear down: stop the sender, cancel timers, close the socket."""
        if self._closed:
            return
        self._closed = True
        self.built.quiesce()
        self.sim.cancel_all()
        self.network.close()
        await asyncio.sleep(0)  # let the transport finish closing

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self, previous: Optional[MetricsSnapshot] = None) -> MetricsSnapshot:
        """Current metrics sample (see :mod:`repro.metrics.snapshot`)."""
        return take_snapshot(self, previous)

    def summary(self) -> dict:
        """Headline metrics: ``BuiltScenario.summary()`` plus the live
        engine's mode, socket and clock readings."""
        return self.built.summarize(
            {"mode": "live", "speedup": self.sim.speedup},
            {
                "send_dropped": self.network.stats.send_dropped,
                "recv_rejected": self.network.recv_rejected,
                "events_fired": self.sim.events_fired,
                "time_ms": self.sim.now,
            },
        )


async def run_spec_live(
    spec: ScenarioSpec,
    speedup: float = 1.0,
    oracle=None,
    local_nodes: Optional[Set[NodeId]] = None,
    directory: Optional[Dict[NodeId, Address]] = None,
    bind: Address = ("127.0.0.1", 0),
) -> LiveSession:
    """Run one spec end to end over loopback UDP; returns the session.

    *oracle* — an unattached
    :class:`~repro.validate.oracle.InvariantOracle` — is attached
    before any member exists and finalized **before** teardown (closing
    the session cancels every timer, which would make a horizon-bounded
    run look quiescent and trip the liveness sweeps).
    """
    session = LiveSession(spec, speedup=speedup, local_nodes=local_nodes,
                          directory=directory, bind=bind)
    if oracle is not None:
        oracle.attach(session)
    try:
        await session.start()
        await session.run()
        if oracle is not None:
            oracle.finish()
    finally:
        await session.close()
    return session
