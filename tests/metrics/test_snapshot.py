"""Tests for periodic metrics snapshots (daemon-mode health samples)."""

from __future__ import annotations

import json

from repro.metrics.snapshot import (
    MetricsSnapshot,
    long_term_buffered,
    take_snapshot,
)
from repro.scenario.library import get_scenario


def finished_run():
    """A finished sim run of a small registry scenario."""
    built = get_scenario("initial_holders").build()
    built.run()
    return built


class TestTakeSnapshot:
    def test_snapshot_of_a_finished_sim_run(self):
        snapshot = take_snapshot(finished_run())
        assert snapshot.alive_members == 100
        assert snapshot.delivered_total == 100
        assert snapshot.recoveries_completed == 90
        assert snapshot.reliability_violations == 0
        assert snapshot.mean_recovery_latency_ms > 0
        assert snapshot.send_dropped == 0
        assert snapshot.goodput_msgs_per_s > 0

    def test_chained_snapshots_compute_interval_goodput(self):
        built = finished_run()
        first = take_snapshot(built)
        second = take_snapshot(built, previous=first)
        # Nothing moved between the two samples: the interval rate is 0
        # (or the whole interval is zero-length, which also reads as 0).
        assert second.goodput_msgs_per_s == 0.0
        assert second.delivered_total == first.delivered_total

    def test_makespan_read_from_the_built_scenario(self):
        """The snapshot reports the span of the build's makespan
        tracker, and a quiet 0.0 for a build without one."""
        from repro.metrics.makespan import MakespanTracker

        built = finished_run()
        built.makespan = None
        assert take_snapshot(built).session_makespan_ms == 0.0
        tracker = MakespanTracker()
        for record in built.simulation.trace.records:
            if record.kind == "member_received":
                tracker._on_received(record)
        built.makespan = tracker
        assert take_snapshot(built).session_makespan_ms == (
            tracker.session_makespan()
        )
        assert take_snapshot(built).session_makespan_ms > 0.0

    def test_to_dict_is_json_ready(self):
        snapshot = take_snapshot(finished_run())
        payload = json.loads(json.dumps(snapshot.to_dict()))
        assert payload["alive_members"] == 100
        assert set(payload) == {
            field for field in MetricsSnapshot.__dataclass_fields__
        }

    def test_long_term_buffered_counts_only_long_term(self):
        group = finished_run().simulation
        # Run is drained: every buffer is empty again.
        assert long_term_buffered(group) == 0
