"""Mega-scale benchmark: the flat engine at 100,000 members.

Three measurements back the scale claims:

* **classic reference** — the object engine on the same scenario shape
  (star hierarchy, uniform 5%-lossy stream) at 1,000 members, the size
  the per-member-object design is comfortable with.  Throughput is
  normalized to *member-deliveries per second* so engine sizes compare.
* **flat 100k** — :func:`repro.scale.engine.run_flat` on
  ``scale_100k`` (100 regions x 1,000 members), tracing off; this is
  the timed section that lands in ``BENCH_scale_100k.json``.
* **oracle pass** — the same 100k run with the full invariant oracle
  subscribed (~3.1M trace records): reliability is asserted, not
  implied (delivered fraction 1.0, zero reliability violations, zero
  invariant violations).

The flat engine must clear **10x** the classic per-member-delivery
throughput; in practice it lands around 100x.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.metrics.report import SeriesTable
from repro.scale.engine import run_flat
from repro.scale.pool import FlatMemberPool
from repro.scenario.library import scale_spec
from repro.scenario.materialize import build_hierarchy
from repro.scenario.registry import get_scenario

#: The flat engine must beat the classic engine by at least this factor
#: in member-deliveries per wall second (measured ~100x).
MIN_SPEEDUP = 10.0
#: Classic-reference population: the object engine's comfortable size.
CLASSIC_MEMBERS_PER_REGION = 100


def classic_reference_rate(messages: int = 10) -> tuple:
    """Object engine on the scale shape at 1,000 members; returns
    ``(deliveries_per_sec, wall_s, members)``."""
    spec = scale_spec(
        regions=10, members_per_region=CLASSIC_MEMBERS_PER_REGION,
        messages=messages,
    )
    built = spec.build()
    started = time.perf_counter()
    built.run()
    wall = time.perf_counter() - started
    summary = built.summary()
    members = spec.topology.member_count()
    deliveries = summary["delivered_fraction"] * members * messages
    return deliveries / wall, wall, members


def flat_100k_rate() -> tuple:
    """Flat engine on scale_100k, tracing off; returns
    ``(deliveries_per_sec, wall_s, result)``."""
    spec = get_scenario("scale_100k")
    started = time.perf_counter()
    result = run_flat(spec, digest=False)
    wall = time.perf_counter() - started
    deliveries = (result.delivered_fraction
                  * result.members * result.messages)
    return deliveries / wall, wall, result


def test_scale_100k(benchmark, show):
    classic_rate, classic_wall, classic_members = classic_reference_rate()
    oracle_run = run_flat(get_scenario("scale_100k"), digest=True, oracle=True)

    state = {}

    def measured() -> SeriesTable:
        flat_rate, flat_wall, result = flat_100k_rate()
        state.update(rate=flat_rate, wall=flat_wall, result=result)
        spec = get_scenario("scale_100k")
        pool_mb = FlatMemberPool(
            build_hierarchy(spec.topology), spec.traffic.count,
        ).nbytes() / 1e6
        table = SeriesTable(
            title=("Mega-scale: flat engine @100k members vs classic object "
                   f"engine @{classic_members} (member-deliveries/sec)"),
            x_label="engine (1=classic object, 2=flat array)",
            xs=[1, 2],
        )
        table.add_series("deliveries per second", [classic_rate, flat_rate])
        table.add_series("members", [float(classic_members),
                                     float(result.members)])
        table.notes.append(
            f"speedup {flat_rate / classic_rate:.1f}x "
            f"(floor {MIN_SPEEDUP:.0f}x); flat wall {flat_wall:.2f}s, "
            f"classic wall {classic_wall:.2f}s; pool {pool_mb:.1f} MB"
        )
        table.notes.append(
            f"oracle pass: {oracle_run.oracle_records_checked} records, "
            f"{oracle_run.invariant_violations} invariant violations, "
            f"{oracle_run.reliability_violations} reliability violations, "
            f"delivered fraction {oracle_run.delivered_fraction}"
        )
        return table

    table = run_once(benchmark, measured, bench_id="scale_100k")
    show(table)

    result = state["result"]
    assert result.members == 100_000
    assert result.delivered_fraction == 1.0
    assert result.reliability_violations == 0
    # Reliability under the oracle, not just the engine's own counters.
    assert oracle_run.delivered_fraction == 1.0
    assert oracle_run.reliability_violations == 0
    assert oracle_run.invariant_violations == 0
    assert oracle_run.oracle_records_checked > 1_000_000
    assert state["rate"] >= MIN_SPEEDUP * classic_rate
