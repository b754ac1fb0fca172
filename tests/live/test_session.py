"""Tests for the live session: scenario specs over loopback UDP."""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.live.codec import encode_frame
from repro.live.session import LiveSession, run_spec_live
from repro.protocol.messages import FeedbackReport
from repro.scenario.registry import get_scenario, scenario_names
from repro.scenario.spec import AdaptSpec, ChurnSpec, MobilitySpec, PlayoutSpec
from repro.validate.oracle import InvariantOracle


def small_spec(**overrides):
    """A 6-member two-region spec that runs in well under a second."""
    spec = get_scenario("initial_holders")
    spec = spec.with_(
        name="live_test",
        topology=dataclasses.replace(spec.topology, kind="chain", n=6,
                                     sizes=(3, 3)),
        traffic=dataclasses.replace(spec.traffic, kind="uniform", count=4,
                                    interval=20.0, start=10.0),
        measurement=dataclasses.replace(spec.measurement, keep_trace=True),
    )
    return spec.with_(**overrides) if overrides else spec


def run(coro):
    return asyncio.run(coro)


class TestLoopbackRun:
    def test_all_members_deliver_everything(self):
        session = run(run_spec_live(small_spec(), speedup=20.0))
        assert session.message_count == 4
        assert session.delivered_fraction(session.message_count) == 1.0
        assert session.violation_count() == 0
        assert session.network.stats.send_dropped == 0
        assert session.network.recv_rejected == 0

    def test_oracle_holds_over_the_live_trace(self):
        oracle = InvariantOracle()
        run(run_spec_live(small_spec(), speedup=20.0, oracle=oracle))
        assert oracle.violation_count == 0
        assert oracle.records_checked > 0

    def test_summary_shape(self):
        session = run(run_spec_live(small_spec(), speedup=20.0))
        summary = session.summary()
        assert summary["mode"] == "live"
        assert summary["scenario"] == "live_test"
        assert summary["members"] == 6
        assert summary["delivered_fraction"] == 1.0
        assert summary["time_ms"] > 0

    def test_summary_reports_makespan(self):
        session = run(run_spec_live(small_spec(), speedup=20.0))
        summary = session.summary()
        assert summary["makespan_session_ms"] > 0
        assert (summary["makespan_seq_p90_ms"]
                <= summary["makespan_seq_max_ms"])
        assert session.makespan.delivery_count == 24  # 6 members x 4 msgs

    def test_asymmetric_inter_region_delays_are_plumbed(self):
        """netem-style up/down split flows from the spec into the live
        session's latency model (which paces real packet delivery)."""
        spec = small_spec()
        spec = spec.with_(topology=dataclasses.replace(
            spec.topology, inter_up_one_way=2.0, inter_down_one_way=6.0))
        session = run(run_spec_live(spec, speedup=20.0))
        assert session.latency.asymmetric
        # Nodes 3..5 sit one region below nodes 0..2.
        assert session.latency.one_way(3, 0) == pytest.approx(2.0)
        assert session.latency.one_way(0, 3) == pytest.approx(6.0)
        assert session.delivered_fraction(session.message_count) == 1.0
        assert session.violation_count() == 0

    def test_detect_all_workload_recovers_live(self):
        """The registry's probe injection drives a real recovery: 10%
        of members hold the message, the rest fetch it over UDP."""
        spec = get_scenario("initial_holders")
        spec = spec.with_(
            topology=dataclasses.replace(spec.topology, n=20),
            traffic=dataclasses.replace(spec.traffic, holders=5),
            measurement=dataclasses.replace(spec.measurement,
                                            keep_trace=True),
        )
        session = run(run_spec_live(spec, speedup=5.0))
        assert session.delivered_fraction(1) == 1.0
        assert session.violation_count() == 0
        assert len(session.recovery_latencies()) > 0

    def test_start_twice_raises(self):
        async def main():
            session = LiveSession(small_spec(), speedup=20.0)
            await session.start()
            try:
                with pytest.raises(RuntimeError):
                    await session.start()
            finally:
                await session.close()

        run(main())

    def test_clock_held_through_setup(self):
        """Virtual time must not advance during construction: the
        session releases the clock only once start() completes."""
        async def main():
            session = LiveSession(small_spec(), speedup=20.0)
            assert session.sim.held
            await session.start()
            try:
                assert not session.sim.held
                assert session.sim.now < 50.0
            finally:
                await session.close()

        run(main())


class TestWrongRoleDatagram:
    def test_feedback_report_to_a_receiver_is_ignored_and_counted(self):
        """A well-formed frame the addressed member has no handler for
        (a ``FeedbackReport`` at a non-sender) used to raise out of the
        socket drain; it is dropped like a request for an unheld seq."""
        async def main():
            escaped = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: escaped.append(context))
            session = LiveSession(small_spec(), speedup=20.0)
            address = await session.start()
            try:
                assert session.sender.node_id != 4
                report = FeedbackReport(receiver=5, loss_estimate=0.5,
                                        rtt_ms=10.0, max_seq=3, received=1)
                session.network._sock.sendto(
                    encode_frame(5, 4, report, send_time=0.0), address)
                await session.run()
            finally:
                await session.close()
            return session, escaped

        session, escaped = run(main())
        assert escaped == []
        assert session.members[4].unhandled_packets == 1
        assert sum(m.unhandled_packets for m in session.members.values()) == 1
        assert session.delivered_fraction(session.message_count) == 1.0


class TestRegistryScenariosLive:
    """The live engine installs a spec through the same code as the
    simulator, so no registry scenario may crash it or lose a node."""

    def test_regional_outage_constructs_starts_and_closes(self):
        """Regression: the outage loss model needs the hierarchy, and the
        hand-written live installer did not pass it (traceback at
        construction)."""
        async def main():
            session = LiveSession(get_scenario("regional_outage"), speedup=20.0)
            try:
                await session.start()
                assert len(session.members) == 45
            finally:
                await session.close()

        run(main())

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_starts_live_or_is_refused_by_name(self, name):
        spec = get_scenario(name)

        async def main():
            session = LiveSession(spec, speedup=20.0)
            try:
                await session.start()
            except ValueError as refusal:
                assert "spec node" in str(refusal)
                return
            finally:
                await session.close()
            built = session.built
            assert session.members and session.sender is not None
            assert built.message_count > 0
            assert (built.mobility is not None) == spec.mobility.enabled
            assert (built.rebuffer is not None) == spec.playout.enabled
            assert (built.cc_driver is not None) == spec.congestion.enabled
            assert (built.churn is not None) == (spec.churn.kind == "random")

        run(main())


class TestNoSpecNodeDropped:
    def test_playout_keys_reach_the_live_summary(self):
        spec = small_spec(playout=PlayoutSpec(kind="cbr", interval=20.0,
                                              startup_delay=50.0))
        oracle = InvariantOracle()
        session = run(run_spec_live(spec, speedup=20.0, oracle=oracle))
        summary = session.summary()
        assert summary["playout_receivers"] == 6
        assert summary["frames_played"] > 0
        assert "rebuffer_events" in summary
        assert oracle.violation_count == 0  # rebuffer-accounting included
        assert session.snapshot().rebuffer_events == summary["rebuffer_events"]

    def test_mobility_adapt_and_probes_are_installed_live(self):
        base = small_spec()
        spec = base.with_(
            mobility=MobilitySpec(kind="waypoint", epoch=20.0, duration=80.0),
            adapt=AdaptSpec(mode="passive", update_interval=30.0),
            measurement=dataclasses.replace(base.measurement, duration=150.0,
                                            drain=False, probe_period=10.0),
        )
        summary = run(run_spec_live(spec, speedup=20.0)).summary()
        assert summary["mobility_epochs"] == 4
        assert summary["adapt_updates"] >= 1
        assert summary["avg_total_occupancy"] > 0
        # New keys only ever follow the established live payload.
        assert list(summary)[:5] == ["scenario", "seed", "digest", "mode",
                                     "speedup"]
        assert list(summary).index("time_ms") < list(summary).index(
            "avg_total_occupancy")

    @pytest.mark.parametrize("node, overrides", [
        ("churn", {"churn": ChurnSpec(kind="random", leave_rate=0.01,
                                      duration=100.0)}),
        ("mobility", {"mobility": MobilitySpec(kind="waypoint",
                                               duration=100.0)}),
        ("adapt", {"adapt": AdaptSpec(mode="passive")}),
    ])
    def test_whole_group_nodes_are_refused_by_name_when_sharded(
            self, node, overrides):
        async def main():
            session = LiveSession(small_spec(**overrides), speedup=20.0,
                                  local_nodes={0, 1, 2},
                                  directory={n: ("127.0.0.1", 1)
                                             for n in range(6)})
            try:
                with pytest.raises(ValueError, match=f"spec node {node}"):
                    await session.start()
            finally:
                await session.close()

        run(main())


class TestSharded:
    def test_two_shards_deliver_over_real_sockets(self):
        spec = small_spec(
            measurement=dataclasses.replace(
                small_spec().measurement, horizon=400.0, drain=False,
            ),
        )

        async def main():
            a = LiveSession(spec, speedup=20.0, local_nodes={0, 1, 2},
                            hold=True)
            b = LiveSession(spec, speedup=20.0, local_nodes={3, 4, 5},
                            hold=True)
            addr_a = await a.start()
            addr_b = await b.start()
            directory = {n: addr_a for n in (0, 1, 2)}
            directory.update({n: addr_b for n in (3, 4, 5)})
            a.network.directory = directory
            b.network.directory = directory
            a.release_clock()
            b.release_clock()
            try:
                await asyncio.gather(a.run(), b.run())
                assert a.sharded and b.sharded
                assert a.sender is not None      # shard with node 0
                assert b.sender is None
                # Every remote member delivered every message.
                received = [r for r in b.trace.records
                            if r.kind == "member_received"]
                assert len(received) == 3 * a.message_count
            finally:
                await a.close()
                await b.close()

        run(main())

    def test_unbounded_sharded_run_is_refused(self):
        """One shard cannot observe group-wide quiescence."""
        async def main():
            session = LiveSession(small_spec(), speedup=20.0,
                                  local_nodes={0, 1, 2},
                                  directory={n: ("127.0.0.1", 1)
                                             for n in range(6)})
            await session.start()
            try:
                with pytest.raises(ValueError, match="horizon or duration"):
                    await session.run()
            finally:
                await session.close()

        run(main())

    def test_probe_workloads_refuse_sharded_sessions(self):
        spec = get_scenario("initial_holders").with_(
            measurement=dataclasses.replace(
                get_scenario("initial_holders").measurement, horizon=100.0,
            ),
        )

        async def main():
            session = LiveSession(spec, speedup=20.0, local_nodes={0},
                                  directory={0: ("127.0.0.1", 1)})
            with pytest.raises(ValueError, match="sharded"):
                await session.start()
            await session.close()

        run(main())


class TestSnapshots:
    def test_snapshot_reads_live_metrics(self):
        async def main():
            session = LiveSession(small_spec(), speedup=20.0)
            await session.start()
            try:
                await session.run()
                snapshot = session.snapshot()
                assert snapshot.alive_members == 6
                assert snapshot.delivered_total == 6 * 4
                assert snapshot.reliability_violations == 0
                assert snapshot.time_ms > 0
                follow_up = session.snapshot(previous=snapshot)
                assert follow_up.delivered_total == snapshot.delivered_total
            finally:
                await session.close()

        run(main())
