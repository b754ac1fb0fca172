"""The ledger's six workloads.

Names are fixed; later issues refer to them.  Each workload stresses a
different layer of ``repro`` and bypasses others (``BENCHMARK.json`` and
the README say which), so an optimisation has one workload that
exercises it and one on which the prediction is "no change".

A workload is driven in three steps so the harness can time and trace
them apart:

* ``setup()`` — imports, spec construction and the first build: what
  ``setup_s`` measures;
* ``run(seed)`` — build the inputs for *seed*, then the timed body;
* ``collect(run, recoveries)`` — read simulated statistics and counts
  out of public state and check them; never timed or traced.

Sizes are cut from the issue's so that several bodies fit one
``--seconds`` window; ``smoke=True`` shrinks them to fractions of a
second for the tier-1 smoke test.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.ledger.clock import Stopwatch

REPO_ROOT = Path(__file__).resolve().parents[2]

PAPER_EXPERIMENTS = (
    "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
    "ablation_c_tradeoff", "ablation_lambda", "ablation_search_vs_multicast",
    "ablation_policies", "ablation_hash_vs_random", "ablation_idle_threshold",
    "ablation_scaling",
)

# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
@dataclass
class Check:
    """One verified property of a body's output."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Run:
    """What ``run`` hands to ``collect``: the stopped watch plus live objects."""

    seed: int
    watch: Stopwatch
    objects: Any = None

    @property
    def wall_s(self) -> float:
        return self.watch.wall_s

    @property
    def cpu_s(self) -> float:
        return self.watch.cpu_s


@dataclass
class Body:
    """One measured body: timings, exact statistics, counts, checks."""

    watch: Stopwatch
    #: Simulated statistics that repeat exactly at a fixed seed; checked
    #: against ``expected.json`` at seed 0 and between the untraced and
    #: traced pass at every seed.  Event counts are deliberately not
    #: here, so a later batching change is not a failure.
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Trace digests, compared between passes (and, for the registry
    #: audit, against ``tests/baselines``) but kept out of expected.json.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Per-layer counts read from public state; exact at a fixed seed.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Per-layer values derived from this body's own wall or CPU time.
    timed: Dict[str, float] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _peak_node_occupancy(buffers: Sequence[Any]) -> int:
    """Largest number of messages any one member held at once, from the
    buffers' own discard records plus what is still held."""
    peak = 0
    for buffer in buffers:
        changes = [(record.receive_time, 1) for record in buffer.records]
        changes += [(record.discard_time, -1) for record in buffer.records]
        changes += [(entry.receive_time, 1) for entry in buffer.entries()]
        changes.sort()  # a discard sorts before a receipt at the same instant
        held = 0
        for _, delta in changes:
            held += delta
            if held > peak:
                peak = held
    return peak


@dataclass
class GroupTotals:
    """Raw numbers read from finished member groups (simulated or live).

    Additive, so a workload that runs several groups per body sums them
    and the ratios are taken once, over the sums.
    """

    deliveries: int = 0
    pairs: int = 0
    control: int = 0
    data: int = 0
    sent: int = 0
    dropped: int = 0
    requests: int = 0
    long_term: int = 0
    slots: int = 0
    buffered_ms: float = 0.0
    peak_node: int = 0
    #: ``None`` once any group's recovery latencies were unobservable
    #: (trace off and no tracer watching ``TraceLog.emit``).
    latencies: Optional[List[float]] = field(default_factory=list)

    def add(self, group: Any, message_count: int, latencies: Optional[Sequence[float]]) -> float:
        """Add one group; returns its delivered fraction."""
        members = group.alive_members()
        delivered = sum(
            1 for member in members for seq in range(1, message_count + 1)
            if member.has_received(seq)
        )
        net = group.network.stats
        buffers = [member.policy.buffer for member in group.members.values()]
        self.deliveries += delivered
        self.pairs += len(members) * message_count
        self.control += net.control_messages()
        self.data += net.data_messages()
        self.sent += net.sent
        self.dropped += net.dropped
        self.requests += (net.sent_by_type.get("LocalRequest", 0)
                          + net.sent_by_type.get("RemoteRequest", 0))
        self.long_term += sum(buffer.long_term_count for buffer in buffers)
        self.slots += message_count * len(group.hierarchy.regions)
        self.buffered_ms += sum(
            record.duration for buffer in buffers for record in buffer.records)
        self.peak_node = max(self.peak_node, _peak_node_occupancy(buffers))
        if latencies is None or self.latencies is None:
            self.latencies = None
        else:
            self.latencies += latencies
        return delivered / max(1, len(members) * message_count)

    def stats(self) -> Dict[str, Any]:
        """Simulated statistics: exact at a fixed seed."""
        stats: Dict[str, Any] = {
            "member_deliveries": self.deliveries,
            "delivery_pairs": self.pairs,
            "control_messages": self.control,
            "data_messages": self.data,
            "core.long_term_copies_mean": self.long_term / max(1, self.slots),
            "core.buffer_ms_per_delivery": self.buffered_ms / max(1, self.deliveries),
            "core.peak_node_occupancy": self.peak_node,
        }
        if self.latencies is not None:
            stats["protocol.recoveries"] = len(self.latencies)
            stats["protocol.sim_recovery_mean_ms"] = _mean(self.latencies)
        return stats

    def timed(self, wall_s: float) -> Dict[str, float]:
        """The throughput figure comparable across engines."""
        return {"member_deliveries_per_s": self.deliveries / wall_s}

    def counts(self) -> Dict[str, float]:
        """Per-layer counts and the wasted-work ratios taken from them."""
        counts: Dict[str, float] = {
            "net.packets_sent": self.sent,
            "net.packets_dropped": self.dropped,
            "protocol.control_per_delivery": self.control / max(1, self.deliveries),
            "protocol.delivered_fraction": self.deliveries / max(1, self.pairs),
        }
        if self.latencies is not None:
            counts["protocol.requests_per_recovery"] = self.requests / max(1, len(self.latencies))
        return counts


def _conservation_check(label: str, group: Any) -> Check:
    net = group.network.stats
    return Check(f"{label}: delivered + dropped <= sent",
                 net.delivered + net.dropped <= net.sent,
                 f"{net.delivered} + {net.dropped} vs {net.sent}")


class Workload:
    """Base: subclasses fill in ``setup``, ``run`` and ``collect``."""

    name = ""
    #: Printed with every report of this workload.
    note = ""

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seed: int) -> Run:
        raise NotImplementedError

    def collect(self, run: Run, recoveries: Optional[List[Dict[str, Any]]] = None) -> Body:
        raise NotImplementedError


# ----------------------------------------------------------------------
# paper_sweep
# ----------------------------------------------------------------------
class PaperSweep(Workload):
    """The paper's 13 experiments at ``--quick`` sizes, serial, cache off.

    The experiments number their trial seeds ``0..k-1``; the ledger's
    seed reaches them as an offset on every trial seed (and as the
    ``seed`` argument of the experiments that take one), so seed 0 runs
    exactly what ``experiments all --quick`` runs.
    """

    name = "paper_sweep"

    def setup(self) -> None:
        from repro.experiments import EXPERIMENTS
        from repro.experiments.quick import quick_params_for
        from repro.runner import Runner, SerialBackend, using_runner

        class ShiftedSeeds(SerialBackend):
            def __init__(self, offset: int) -> None:
                self.offset = offset

            def run(self, specs: Sequence[Any]) -> List[Any]:
                return super().run(
                    [replace(spec, seed=spec.seed + self.offset) for spec in specs])

        self._experiments = EXPERIMENTS
        self._runner = lambda offset: Runner(ShiftedSeeds(offset))  # no cache
        self._using_runner = using_runner
        self._params = {}
        self._takes_seed = set()
        for eid in PAPER_EXPERIMENTS:
            accepted = inspect.signature(EXPERIMENTS[eid].run).parameters
            params = quick_params_for(eid)
            if self.smoke:
                # One point per sweep axis, one seed, a handful of trials.
                for key, parameter in accepted.items():
                    values = params.get(key, parameter.default)
                    if isinstance(values, tuple) and len(values) > 1:
                        params[key] = values[:1]
                params.update({key: value for key, value in
                               (("seeds", 1), ("trials", 100)) if key in accepted})
            self._params[eid] = params
            if "seed" in accepted:
                self._takes_seed.add(eid)

    def run(self, seed: int) -> Run:
        runner = self._runner(seed * 100)
        tables, walls = {}, {}
        with Stopwatch() as watch, self._using_runner(runner):
            for eid in PAPER_EXPERIMENTS:
                params = dict(self._params[eid])
                if eid in self._takes_seed:
                    params["seed"] = seed
                started = time.perf_counter()
                tables[eid] = self._experiments[eid].run(**params)
                walls[eid] = time.perf_counter() - started
        return Run(seed, watch, (runner, tables, walls))

    def collect(self, run: Run, recoveries: Optional[List[Dict[str, Any]]] = None) -> Body:
        runner, tables, walls = run.objects
        body = Body(run.watch)
        for eid, table in tables.items():
            body.stats[f"table_digest.{eid}"] = table.digest()
            body.checks.append(Check(
                f"{eid}: table has a value per x for every series",
                bool(table.series) and all(
                    len(series) == len(table.xs) for series in table.series.values()),
                f"{len(table.series)} series x {len(table.xs)} points"))
            body.timed[f"experiments.{eid}.wall_s"] = walls[eid]
        stats = runner.stats
        body.stats["runner.trials"] = stats.trials
        body.checks.append(Check("every trial executed", stats.executed == stats.trials,
                                 f"{stats.executed} of {stats.trials}"))
        body.counts = {"runner.trials": stats.trials, "sim.events_fired": stats.events_fired}
        body.timed.update({
            "runner.trial_time_s": stats.elapsed_s,
            "runner.overhead_s": run.wall_s - stats.elapsed_s,
        })
        return body


# ----------------------------------------------------------------------
# stream_1k
# ----------------------------------------------------------------------
class Stream1k(Workload):
    """The north-star stress shape on the object engine, tracing off."""

    name = "stream_1k"

    def _spec(self, seed: int) -> Any:
        from repro.scenario.library import scale_spec

        regions, members, messages = (2, 10, 5) if self.smoke else (10, 100, 100)
        spec = scale_spec(regions=regions, members_per_region=members, messages=messages,
                          send_interval=25, loss_rate=0.05, seed=seed,
                          horizon=messages * 25 + 3_000)
        return replace(spec, measurement=replace(spec.measurement, keep_trace=False))

    def setup(self) -> None:
        from repro.scenario import build_scenario

        build_scenario(self._spec(0))

    def run(self, seed: int) -> Run:
        from repro.scenario import materialize

        built = materialize.build_scenario(self._spec(seed))
        with Stopwatch() as watch:
            built.run()
        return Run(seed, watch, built)

    def collect(self, run: Run, recoveries: Optional[List[Dict[str, Any]]] = None) -> Body:
        built = run.objects
        simulation = built.simulation
        body = Body(run.watch)
        totals = GroupTotals()
        latencies = None if recoveries is None else [fields["latency"] for fields in recoveries]
        fraction = totals.add(simulation, built.message_count, latencies)
        body.stats = totals.stats()
        body.counts = {**totals.counts(), "sim.events_fired": simulation.sim.events_fired}
        body.timed = totals.timed(run.wall_s)
        copies = body.stats["core.long_term_copies_mean"]
        c = simulation.config.long_term_c
        body.checks = [
            _conservation_check(self.name, simulation),
            Check("delivered fraction >= 0.999", fraction >= 0.999, f"{fraction}"),
            Check(f"long-term copies per region and message within 25% of C={c:g}",
                  self.smoke or abs(copies - c) <= 0.25 * c, f"{copies:.3f}"),
        ]
        return body


# ----------------------------------------------------------------------
# audit_registry
# ----------------------------------------------------------------------
class AuditRegistry(Workload):
    """Every registry scenario with the trace kept and the oracle on.

    At seed 0 each scenario runs at its registered seed, so its trace
    digest must equal the golden one under ``tests/baselines``.
    """

    name = "audit_registry"
    baselines = REPO_ROOT / "tests" / "baselines" / "scenario_trace_digests.json"

    def _specs(self, seed: int) -> List[Any]:
        from repro.scenario import get_scenario, scenario_names

        names = scenario_names()
        if self.smoke:
            names = [name for name in names if name in ("initial_holders", "search")]
        specs = []
        for name in names:
            spec = get_scenario(name)
            specs.append(replace(
                spec, seed=spec.seed + seed,
                measurement=replace(spec.measurement, keep_trace=True, oracle=True)))
        return specs

    def setup(self) -> None:
        from repro.scenario import build_scenario

        for spec in self._specs(0):
            build_scenario(spec)

    def run(self, seed: int) -> Run:
        from repro.scenario import materialize
        from repro.sim import tracing

        specs = self._specs(seed)
        finished = []
        with Stopwatch() as watch:
            for spec in specs:
                built = materialize.build_scenario(spec).run()
                finished.append((built, tracing.trace_digest(built.simulation.trace.records)))
        return Run(seed, watch, finished)

    def collect(self, run: Run, recoveries: Optional[List[Dict[str, Any]]] = None) -> Body:
        body = Body(run.watch)
        golden = json.loads(self.baselines.read_text(encoding="utf-8")) if run.seed == 0 else {}
        totals = GroupTotals()
        records = checked = events = 0
        for built, digest in run.objects:
            name = built.spec.name
            simulation = built.simulation
            # Delivery below 1 is some scenarios' point (handoff orphans
            # members), so no floor is checked here; the oracle is.
            totals.add(simulation, built.message_count, simulation.recovery_latencies())
            records += len(simulation.trace.records)
            checked += built.oracle.records_checked
            events += simulation.sim.events_fired
            body.digests[name] = digest
            body.checks.append(Check(f"{name}: zero oracle violations",
                                     built.oracle.violation_count == 0,
                                     f"{built.oracle.violation_count}"))
            if name in golden:
                body.checks.append(Check(
                    f"{name}: golden trace digest",
                    golden[name]["digest"] == digest
                    and golden[name]["records"] == len(simulation.trace.records),
                    digest[:16]))
        body.stats = totals.stats()
        body.counts = {
            **totals.counts(),
            "sim.events_fired": events,
            "sim.trace_records": records,
            "validate.records_checked": checked,
        }
        body.timed = totals.timed(run.wall_s)
        return body


# ----------------------------------------------------------------------
# cc_bottleneck
# ----------------------------------------------------------------------
class CcBottleneck(Workload):
    """The ``ablation_congestion`` shape at 2x load, one seed, for the
    open-loop sender and both adaptive controllers."""

    name = "cc_bottleneck"
    controllers = ("none", "tfmcc", "aimd")

    def _builders(self, seed: int) -> List[Any]:
        from repro.scenario.builder import scenario

        messages, horizon = (20, 1_500.0) if self.smoke else (200, 8_000.0)
        members, capacity_per_member, load = 30, 100.0, 2.0
        rate = load * capacity_per_member
        builders = []
        for controller in self.controllers:
            builder = (
                scenario(f"ledger-cc-{controller}", seed=seed)
                .single_region(members)
                .uniform(messages, 1000.0 / rate, start=1.0)
                .bottleneck(capacity=capacity_per_member * members, window=250.0,
                            receiver_loss=0.02)
                .protocol(max_recovery_time=1_500.0)
                .measure(horizon=horizon, probe_period=100.0)
            )
            if controller != "none":
                builder = builder.congestion(
                    controller, target_loss=0.02, min_rate=capacity_per_member / 10.0,
                    max_rate=rate, feedback_interval=100.0)
            builders.append(builder)
        return builders

    def setup(self) -> None:
        for builder in self._builders(0):
            builder.build()

    def run(self, seed: int) -> Run:
        built = [builder.build() for builder in self._builders(seed)]
        with Stopwatch() as watch:
            for scenario_run in built:
                scenario_run.run()
        return Run(seed, watch, built)

    def collect(self, run: Run, recoveries: Optional[List[Dict[str, Any]]] = None) -> Body:
        body = Body(run.watch)
        totals = GroupTotals()
        sent = offered = feedback = events = records = 0
        fractions = {}
        for controller, built in zip(self.controllers, run.objects):
            simulation = built.simulation
            fraction = totals.add(simulation, built.message_count,
                                  simulation.recovery_latencies())
            fractions[f"delivered_fraction.{controller}"] = fraction
            feedback += simulation.network.stats.sent_by_type.get("FeedbackReport", 0)
            events += simulation.sim.events_fired
            records += len(simulation.trace.records)
            if built.cc_driver is not None:
                sent += built.cc_driver.sent
                offered += built.offered_count
                body.checks.append(Check(f"{controller}: sent <= offered",
                                         built.cc_driver.sent <= built.offered_count,
                                         f"{built.cc_driver.sent} of {built.offered_count}"))
            body.checks.append(_conservation_check(controller, simulation))
            # The open-loop sender is expected to lose deliveries at 2x
            # load; that is the ablation's point, not a failed operation.
            body.checks.append(Check(f"{controller}: delivered fraction >= 0.85",
                                     fraction >= 0.85, f"{fraction:.4f}"))
        body.stats = {**totals.stats(), **fractions}
        body.counts = {
            **totals.counts(),
            "sim.events_fired": events,
            "sim.trace_records": records,
            "cc.feedback_reports": feedback,
            "cc.sent_over_offered": sent / max(1, offered),
        }
        body.timed = totals.timed(run.wall_s)
        return body


# ----------------------------------------------------------------------
# flat_100k
# ----------------------------------------------------------------------
class Flat100k(Workload):
    """100 regions x 1,000 members on the numpy flat engine, digest off."""

    name = "flat_100k"

    def _spec(self, seed: int) -> Any:
        from repro.scenario.library import scale_spec

        regions, members, messages = (4, 50, 5) if self.smoke else (100, 1_000, 40)
        return scale_spec(regions=regions, members_per_region=members, messages=messages,
                          seed=seed, horizon=messages * 25 + 3_000)

    def setup(self) -> None:
        from repro.scale.engine import run_flat  # noqa: F401 - the import is the set-up cost
        from repro.scale.pool import FlatMemberPool
        from repro.scenario.materialize import build_hierarchy

        spec = self._spec(0)
        started = time.perf_counter()
        pool = FlatMemberPool(build_hierarchy(spec.topology), spec.traffic.count)
        self._pool_build_s = time.perf_counter() - started
        self._pool_mb = pool.nbytes() / 1e6

    def run(self, seed: int) -> Run:
        from repro.scale import engine

        spec = self._spec(seed)
        with Stopwatch() as watch:
            result = engine.run_flat(spec, digest=False)
        return Run(seed, watch, result)

    def collect(self, run: Run, recoveries: Optional[List[Dict[str, Any]]] = None) -> Body:
        result = run.objects
        body = Body(run.watch)
        pairs = result.members * result.messages
        delivered = round(result.delivered_fraction * pairs)
        body.stats = {
            "member_deliveries": delivered,
            "delivery_pairs": pairs,
            "protocol.recoveries": result.recoveries,
            "protocol.sim_recovery_mean_ms": result.mean_recovery_latency_ms,
            "reliability_violations": result.reliability_violations,
        }
        body.counts = {
            "sim.events_fired": result.events_fired,
            "scale.events_fired": result.events_fired,
            "scale.pool_mb": self._pool_mb,
            "protocol.delivered_fraction": result.delivered_fraction,
        }
        body.timed = {
            "member_deliveries_per_s": delivered / run.wall_s,
            "scale.us_per_member_delivery": run.wall_s * 1e6 / max(1, delivered),
            "scale.pool_build_s": self._pool_build_s,
        }
        body.checks.append(Check("delivered fraction >= 0.999",
                                 result.delivered_fraction >= 0.999,
                                 f"{result.delivered_fraction}"))
        return body


# ----------------------------------------------------------------------
# live_loopback
# ----------------------------------------------------------------------
class LiveLoopback(Workload):
    """The protocol over asyncio UDP on 127.0.0.1: one process, one
    socket, real time.  Open loop: the sender transmits on the spec's
    schedule whether or not the process keeps up, so the benchmark also
    schedules probe timers on the session clock and reports how late
    they fired.  Traffic crosses the host loopback, never a real link.
    """

    name = "live_loopback"
    note = "traffic crossed the host loopback (127.0.0.1), never a real link"
    #: Virtual ms between lateness probes.
    probe_every = 50.0

    def _session(self, seed: int) -> Any:
        from repro.live.session import LiveSession
        from repro.scenario.library import scale_spec

        if self.smoke:
            spec = scale_spec(regions=2, members_per_region=4, messages=10, send_interval=20,
                              max_recovery_time=300, horizon=600, seed=seed)
        else:
            # A fifth of one core on a quiet host.  The issue's size (20 ms
            # between messages, two fifths of a core) leaves no room for
            # this sandbox's slow phases: at half speed the loop saturates,
            # timers run late, and CPU per datagram and recovery latency
            # double without any change to the program.
            spec = scale_spec(regions=4, members_per_region=16, messages=100, send_interval=40,
                              max_recovery_time=1_000, horizon=5_500, seed=seed)
        return LiveSession(spec, speedup=1.0)

    async def _start_and_close(self) -> None:
        session = self._session(0)
        await session.start()
        await session.close()

    async def _run(self, seed: int) -> Run:
        session = self._session(seed)
        lateness: List[float] = []
        await session.start()
        try:
            clock = session.sim
            due = self.probe_every
            while due < session.spec.measurement.duration:
                clock.at(due, lambda due=due: lateness.append(clock.now - due))
                due += self.probe_every
            with Stopwatch(paced=True) as watch:
                await session.run()
        finally:
            await session.close()
        return Run(seed, watch, (session, lateness))

    def setup(self) -> None:
        asyncio.run(self._start_and_close())

    def run(self, seed: int) -> Run:
        return asyncio.run(self._run(seed))

    def collect(self, run: Run, recoveries: Optional[List[Dict[str, Any]]] = None) -> Body:
        session, lateness = run.objects
        body = Body(run.watch)
        totals = GroupTotals()
        latencies = sorted(session.recovery_latencies())
        fraction = totals.add(session, session.message_count, latencies)
        net = session.network.stats
        utilisation = run.cpu_s / run.wall_s
        # Real time: nothing repeats exactly, so nothing is "expected" and
        # every value is reported as a median over bodies.
        body.timed = {
            **{key: value for key, value in totals.stats().items()
               if key != "protocol.sim_recovery_mean_ms"},  # real ms here, not simulated
            **totals.counts(),
            **totals.timed(run.wall_s),
            "live.datagrams_sent": net.sent,
            "live.datagrams_delivered": net.delivered,
            "live.recv_rejected": session.network.recv_rejected,
            "live.send_dropped": net.send_dropped,
            "live.cpu_us_per_datagram": run.cpu_s * 1e6 / max(1, net.sent),
            "live.utilisation": utilisation,
            "live.timer_lateness_p50_ms": _percentile(lateness, 50),
            "live.timer_lateness_p99_ms": _percentile(lateness, 99),
            "live.recovery_p50_ms": _percentile(latencies, 50),
            "live.recovery_p99_ms": _percentile(latencies, 99),
        }
        body.checks = [
            # One delivery can still be in flight at the horizon.
            Check("delivered fraction >= 0.999", fraction >= 0.999, f"{fraction}"),
            # Above this the sandbox, not the protocol, sets the numbers.
            Check("process utilisation <= 0.7", utilisation <= 0.7, f"{utilisation:.3f}"),
            Check("no datagram rejected or undeliverable",
                  session.network.recv_rejected == 0 and net.send_dropped == 0,
                  f"{session.network.recv_rejected} rejected, {net.send_dropped} dropped"),
        ]
        return body


def _percentile(values: Sequence[float], percent: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


WORKLOADS = {
    workload.name: workload
    for workload in (PaperSweep, Stream1k, AuditRegistry, CcBottleneck, Flat100k, LiveLoopback)
}
