"""Shard determinism: partitioned runs must match serial ones exactly.

The flat engine partitions regions across engines with epoch barriers;
the commutative digest of a sharded run must equal the serial flat
run's, for any shard count and for process-mode execution.
"""

import pytest

from repro.scale.engine import run_flat
from repro.scenario.library import get_scenario, scale_spec


def parity_spec(seed=3):
    """Multi-region and lossy enough that shards must exchange repairs."""
    return scale_spec(
        regions=5, members_per_region=4, messages=4, loss_rate=0.4, seed=seed,
    )


def coincident_spec():
    """Sends 10 ms apart: sweeps judge several columns at one instant
    (the golden ``coincident_deadlines`` case)."""
    return scale_spec(regions=4, members_per_region=20, messages=12,
                      send_interval=10, loss_rate=0.2, seed=3, horizon=3_000)


class TestFlatShardParity:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_digest_equals_serial(self, shards):
        serial = run_flat(parity_spec())
        sharded = run_flat(parity_spec(), shards=shards)
        assert sharded.trace_digest == serial.trace_digest
        assert sharded.events_fired == serial.events_fired
        assert sharded.shards == shards

    def test_process_mode_matches_in_process(self):
        in_process = run_flat(parity_spec(), shards=3)
        processes = run_flat(parity_spec(), shards=3, processes=True)
        assert processes.trace_digest == in_process.trace_digest
        assert processes.summary() == in_process.summary()
        assert (processes.long_term_holder_histogram()
                == in_process.long_term_holder_histogram()
                == run_flat(parity_spec()).long_term_holder_histogram())

    def test_coincident_deadlines_parity_in_every_mode(self):
        """The merged member-major draw order is a per-region matter:
        it must not notice how regions are spread over shards."""
        serial = run_flat(coincident_spec())
        sharded = run_flat(coincident_spec(), shards=2)
        processes = run_flat(coincident_spec(), shards=2, processes=True)
        assert sharded.trace_digest == serial.trace_digest
        assert processes.trace_digest == serial.trace_digest
        assert processes.summary() == sharded.summary()

    @pytest.mark.parametrize("shards", [2, 4])
    def test_scale_tier_scenario_parity(self, shards):
        spec = get_scenario("scale_10k")
        serial = run_flat(spec)
        sharded = run_flat(spec, shards=shards)
        assert sharded.trace_digest == serial.trace_digest
        assert serial.delivered_fraction == 1.0
        assert serial.reliability_violations == 0

    def test_more_shards_than_regions_collapses_gracefully(self):
        spec = scale_spec(regions=2, members_per_region=3, messages=2)
        serial = run_flat(spec)
        over = run_flat(spec, shards=8)
        assert over.shards == 2  # one engine per region, empties dropped
        assert over.trace_digest == serial.trace_digest
