"""Flat engine behaviour: reliability, determinism, oracle cleanliness."""

import dataclasses

import numpy as np
import pytest

from repro.scale.engine import CommutativeTraceDigest, FlatShard, run_flat
from repro.scenario.library import scale_spec
from repro.scenario.registry import (
    get_scenario,
    registered_scenarios,
    scenario_names,
)


def small_spec(seed=1):
    """4 regions x 6 members, lossy enough that recovery always fires."""
    return scale_spec(
        regions=4, members_per_region=6, messages=4, loss_rate=0.3, seed=seed,
    )


def remote_heavy_spec(seed=2):
    """Tiny regions + heavy loss: whole regions miss, forcing parent
    (remote) recovery instead of local repair."""
    return scale_spec(
        regions=6, members_per_region=3, messages=3, loss_rate=0.6, seed=seed,
    )


def long_stream_spec():
    """Long enough that sweeps and recoveries of many messages overlap."""
    return scale_spec(regions=8, members_per_region=50, messages=60,
                      loss_rate=0.2, seed=5, horizon=4_500)


def coincident_spec():
    """Sends 10 ms apart: two or more columns fall due in one sweep."""
    return scale_spec(regions=4, members_per_region=20, messages=12,
                      send_interval=10, loss_rate=0.2, seed=3, horizon=3_000)


class TestReliability:
    def test_every_member_eventually_delivers_everything(self):
        result = run_flat(small_spec())
        assert result.delivered_fraction == 1.0
        assert result.reliability_violations == 0
        assert result.recoveries > 0

    def test_remote_recovery_path_is_exercised(self):
        result = run_flat(remote_heavy_spec(), keep_records=True)
        assert result.delivered_fraction == 1.0
        kinds = {
            record.kind
            for engine in result.engines
            for record in engine.trace.records
        }
        assert "remote_request_served" in kinds

    def test_lossless_run_never_recovers(self):
        spec = scale_spec(regions=3, members_per_region=5, messages=3,
                          loss_rate=0.0)
        result = run_flat(spec)
        assert result.delivered_fraction == 1.0
        assert result.recoveries == 0


class TestDeterminism:
    def test_same_seed_same_digest(self):
        first = run_flat(small_spec(seed=7))
        second = run_flat(small_spec(seed=7))
        assert first.trace_digest == second.trace_digest
        assert first.events_fired == second.events_fired

    def test_different_seed_different_digest(self):
        assert (run_flat(small_spec(seed=1)).trace_digest
                != run_flat(small_spec(seed=2)).trace_digest)

    def test_one_shot_streams_are_not_kept(self):
        """A multicast's loss stream is drawn from once; caching it grew
        ``_rngs`` by a generator per (region, message)."""
        result = run_flat(small_spec(), digest=False)
        (engine,) = result.engines
        assert engine._rngs
        assert not [key for key in engine._rngs if key[0] == "mcast"]
        assert (run_flat(small_spec(), shards=2).trace_digest
                == run_flat(small_spec()).trace_digest)


class TestOracle:
    def test_serial_flat_run_is_invariant_clean(self):
        result = run_flat(small_spec(), oracle=True)
        assert result.invariant_violations == 0
        assert result.oracle_records_checked > 0

    def test_sharded_flat_run_is_invariant_clean(self):
        result = run_flat(remote_heavy_spec(), shards=2, oracle=True)
        assert result.invariant_violations == 0
        assert result.oracle_records_checked > 0


class TestSpecGate:
    def test_churn_spec_rejected(self):
        spec = get_scenario("scale_10k")
        churned = spec.with_(
            churn=dataclasses.replace(spec.churn, kind="random", leave_rate=0.01)
        )
        with pytest.raises(ValueError, match="churn"):
            run_flat(churned)

    def test_unbounded_recovery_rejected(self):
        spec = small_spec()
        unbounded = spec.with_(
            policy=dataclasses.replace(spec.policy, max_recovery_time=None),
            measurement=dataclasses.replace(spec.measurement, duration=100.0),
        )
        with pytest.raises(ValueError, match="max_recovery_time"):
            run_flat(unbounded)

    def test_refusal_comes_before_anything_is_built(self, monkeypatch):
        def build_nothing(topology):
            raise AssertionError("hierarchy built for a refused spec")

        monkeypatch.setattr("repro.scale.engine.build_hierarchy", build_nothing)
        spec = small_spec()
        with pytest.raises(ValueError, match="flat engine cannot run spec"):
            run_flat(spec.with_(fec=dataclasses.replace(spec.fec, mode="proactive")))


def pending_deadlines(engine, region_id):
    """``_live[region_id]`` recomputed from the pool: per column, the
    earliest idle deadline among its short-term copies."""
    start, stop = engine.pool.rows(region_id)
    short = (engine.pool.buffered[start:stop]
             & ~engine.pool.long_term[start:stop])
    deadline = engine.pool.idle_deadline[start:stop]
    # What lets a sweep read the deadline column alone.
    assert (np.isfinite(deadline) == short).all()
    earliest = np.where(short, deadline, np.inf).min(axis=0)
    return {col: when for col, when in enumerate(earliest.tolist())
            if when < np.inf}


class TestSweepWindow:
    """The idle sweep reads only the columns whose earliest pending
    deadline has come.  Complete: no copy is left unjudged.  Narrow: it
    reads the due columns, not the stream or the recent window."""

    @pytest.mark.parametrize("spec", [
        small_spec(),
        remote_heavy_spec(),
        scale_spec(regions=3, members_per_region=5, messages=3, loss_rate=0.0),
        long_stream_spec(),
    ], ids=["small", "remote_heavy", "lossless", "long_stream"])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_no_short_term_copy_outlives_the_run(self, spec, shards):
        result = run_flat(spec, shards=shards, digest=False)
        for engine in result.engines:
            pool = engine.pool
            assert not (pool.buffered & ~pool.long_term).any()
            assert not np.isfinite(pool.idle_deadline).any()
            assert engine._live == {region: {} for region in engine.owned}

    @pytest.mark.parametrize("spec, events", [
        (long_stream_spec(), 2872),
        (remote_heavy_spec(), 101),  # regions where the sender alone receives
        (coincident_spec(), 241),
    ], ids=["long_stream", "remote_heavy", "coincident_deadlines"])
    def test_live_is_exact_after_every_event(self, spec, events):
        """``_live`` is maintained where deadlines are written, not
        recomputed: after every event it must equal what the pool says.
        One shard owns every region, so its outbox is its own inbox."""
        engine = FlatShard(spec)
        while engine.sim.step():
            for message in engine.drain_outbox():
                engine.deliver_inbound(message)
            for region_id in engine.owned:
                assert engine._live[region_id] == pending_deadlines(engine, region_id)
        # The golden run (flat_trace_digests.json), not a look-alike.
        assert engine.sim.events_fired == events

    def test_long_term_copies_per_region_stay_near_c(self):
        """§3.2 on the flat engine: once every idle timer has fired, a
        region keeps about C copies of each message."""
        spec = scale_spec(regions=10, members_per_region=100, messages=40,
                          seed=1, horizon=4_000)
        pool = run_flat(spec, digest=False).engines[0].pool
        copies = sum(pool.long_term_copies(seq) for seq in range(1, 41))
        assert copies / (10 * 40) == pytest.approx(spec.policy.c, rel=0.25)

    @pytest.mark.parametrize("messages", [10, 160])
    def test_sweep_work_per_delivery_is_flat_in_stream_length(self, messages):
        """A count, not a timing.  Each copy is examined when its column
        falls due (40, 70 and 75 ms after the delivery here) and when a
        request refreshes it: under 4 cells per (member, message).  The
        window of live columns read 8.5-9 x, the whole history ~3 x
        messages."""
        spec = scale_spec(regions=4, members_per_region=50, messages=messages,
                          seed=0, horizon=messages * 25 + 3_000)
        result = run_flat(spec, digest=False)
        assert result.delivered_fraction == 1.0
        assert 0 < result.sweep_cells <= 5 * result.members * result.messages
        assert "sweep_cells" not in result.summary()


class TestScaleTier:
    def test_tier_names_resolve_to_supported_specs(self):
        assert scenario_names(engine="flat") == ["scale_10k", "scale_100k"]
        for name, entry in registered_scenarios(engine="flat").items():
            spec = get_scenario(name)
            assert spec == entry.spec()
            assert spec.name == name
            assert spec.topology.member_count() >= 10_000

    def test_flat_tier_stays_out_of_the_golden_digest_catalogue(self):
        """``scenario_names()`` is what the digest baselines and the
        ledger's registry audit iterate; a 100k-member entry there
        would turn each of them into an hours-long run."""
        assert len(scenario_names()) == 11
        assert not set(scenario_names()) & set(scenario_names(engine="flat"))
        assert list(registered_scenarios()) == scenario_names()

    def test_unknown_name_lists_the_flat_tier_too(self):
        with pytest.raises(KeyError, match="flat engine: scale_10k, scale_100k"):
            get_scenario("scale_1M")


class TestCommutativeDigest:
    def _lines(self):
        return [
            b'{"kind": "a", "t": 1.0}',
            b'{"kind": "b", "t": 2.0}',
            b'{"kind": "c", "t": 3.0}',
        ]

    def _digest_of(self, lines):
        import hashlib
        digest = CommutativeTraceDigest()
        for line in lines:
            line_hash = int.from_bytes(hashlib.sha256(line).digest(), "big")
            digest.merge(line_hash, 1)
        return digest

    def test_order_independent(self):
        lines = self._lines()
        assert (self._digest_of(lines).hexdigest()
                == self._digest_of(list(reversed(lines))).hexdigest())

    def test_merge_equals_single_stream(self):
        lines = self._lines()
        combined = self._digest_of(lines)
        left = self._digest_of(lines[:1])
        right = self._digest_of(lines[1:])
        left.merge(*right.state)
        assert left.hexdigest() == combined.hexdigest()

    def test_count_disambiguates_truncation(self):
        lines = self._lines()
        full = self._digest_of(lines)
        partial = self._digest_of(lines[:2])
        assert full.hexdigest() != partial.hexdigest()
        assert full.hexdigest().endswith("-3")
