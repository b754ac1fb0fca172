"""Tests for periodic metrics snapshots (daemon-mode health samples)."""

from __future__ import annotations

import json

from repro.metrics.snapshot import (
    MetricsSnapshot,
    long_term_buffered,
    take_snapshot,
)
from repro.scenario.registry import get_scenario


def built_group():
    """A finished sim run of a small registry scenario."""
    built = get_scenario("initial_holders").build()
    built.run()
    return built.simulation


class TestTakeSnapshot:
    def test_snapshot_of_a_finished_sim_run(self):
        group = built_group()
        snapshot = take_snapshot(group)
        assert snapshot.alive_members == 100
        assert snapshot.delivered_total == 100
        assert snapshot.recoveries_completed == 90
        assert snapshot.reliability_violations == 0
        assert snapshot.mean_recovery_latency_ms > 0
        assert snapshot.send_dropped == 0
        assert snapshot.goodput_msgs_per_s > 0

    def test_chained_snapshots_compute_interval_goodput(self):
        group = built_group()
        first = take_snapshot(group)
        second = take_snapshot(group, previous=first)
        # Nothing moved between the two samples: the interval rate is 0
        # (or the whole interval is zero-length, which also reads as 0).
        assert second.goodput_msgs_per_s == 0.0
        assert second.delivered_total == first.delivered_total

    def test_makespan_read_from_groups_that_carry_a_tracker(self):
        """Live sessions expose ``.makespan``; plain simulations don't.
        The snapshot must report the span for the former and a quiet
        0.0 for the latter."""
        from repro.metrics.makespan import MakespanTracker

        group = built_group()
        assert take_snapshot(group).session_makespan_ms == 0.0
        tracker = MakespanTracker()
        for record in group.trace.records:
            if record.kind == "member_received":
                tracker._on_received(record)
        group.makespan = tracker
        assert take_snapshot(group).session_makespan_ms == (
            tracker.session_makespan()
        )
        assert take_snapshot(group).session_makespan_ms > 0.0

    def test_to_dict_is_json_ready(self):
        snapshot = take_snapshot(built_group())
        payload = json.loads(json.dumps(snapshot.to_dict()))
        assert payload["alive_members"] == 100
        assert set(payload) == {
            field for field in MetricsSnapshot.__dataclass_fields__
        }

    def test_long_term_buffered_counts_only_long_term(self):
        group = built_group()
        # Run is drained: every buffer is empty again.
        assert long_term_buffered(group) == 0
