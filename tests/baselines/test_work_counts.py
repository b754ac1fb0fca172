"""Golden work counts for the recovery-heavy congestion shape and the
copy-heavy stream shape.

A trace digest pins *what* a run does; these counts pin *how much*.  A
change that makes a path cheaper per call must leave every one of them
as it is.

The congestion shape is the ``ablation_congestion`` one at twice the
bottleneck capacity, seed 0, for the open-loop sender and both adaptive
controllers (30 members in one region, 200 messages, 8 s): almost every
packet in it is a local request that finds nothing.  Its counts are the
packets sent per payload type, the deliveries and drops the network
counted, the engine events fired and instants opened, the trace records
and the §2.2 local rounds summed over every completed recovery.

The stream shape (``stream``) is the lossy multi-region stream of
:func:`repro.scenario.library.scale_spec` at 10 regions of 100 members,
20 messages, 5% loss, seed 0, trace off: almost all of its work is the
life of a buffered copy (receipt, idle clock, §3.2 coin, discard).  Its
counts are the packets sent per payload type, the network's deliveries
and drops, the events and instants, the member deliveries, the discards per reason from the buffers' logs,
the long-term copies held at the end and the RNG streams built.

Re-bless only after an intended behaviour change:

    RRMP_UPDATE_BASELINES=1 PYTHONPATH=src python -m pytest tests/baselines/test_work_counts.py
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.scenario.builder import scenario
from repro.scenario.library import scale_spec
from repro.scenario.materialize import build_scenario

BASELINE_PATH = Path(__file__).parent / "work_counts.json"
UPDATE_ENV = "RRMP_UPDATE_BASELINES"

CONTROLLERS = ("none", "tfmcc", "aimd")


def _builder(controller: str):
    members, capacity_per_member, load = 30, 100.0, 2.0
    rate = load * capacity_per_member
    builder = (
        scenario(f"work-counts-{controller}", seed=0)
        .single_region(members)
        .uniform(200, 1000.0 / rate, start=1.0)
        .bottleneck(capacity=capacity_per_member * members, window=250.0,
                    receiver_loss=0.02)
        .protocol(max_recovery_time=1_500.0)
        .measure(horizon=8_000.0, probe_period=100.0)
    )
    if controller != "none":
        builder = builder.congestion(
            controller, target_loss=0.02, min_rate=capacity_per_member / 10.0,
            max_rate=rate, feedback_interval=100.0)
    return builder


def _delivery_counts(stats) -> dict:
    """What the network did with the packets it was handed, per destination."""
    return {"delivered": stats.delivered, "dropped": stats.dropped,
            "send_dropped": stats.send_dropped}


def _work_counts(controller: str) -> dict:
    simulation = _builder(controller).build().run().simulation
    trace = simulation.trace
    return {
        "sent_by_type": dict(sorted(simulation.network.stats.sent_by_type.items())),
        **_delivery_counts(simulation.network.stats),
        "events_fired": simulation.sim.events_fired,
        "instants_opened": simulation.sim.instants_opened,
        "records": len(trace.records),
        "local_rounds": sum(record["local_rounds"]
                            for record in trace.of_kind("recovery_completed")),
    }


def _stream_work_counts() -> dict:
    spec = scale_spec(regions=10, members_per_region=100, messages=20, send_interval=25,
                      loss_rate=0.05, seed=0, horizon=20 * 25 + 3_000)
    spec = replace(spec, measurement=replace(spec.measurement, keep_trace=False))
    simulation = build_scenario(spec).run().simulation
    buffers = [member.policy.buffer for member in simulation.members.values()]
    return {
        "sent_by_type": dict(sorted(simulation.network.stats.sent_by_type.items())),
        **_delivery_counts(simulation.network.stats),
        "events_fired": simulation.sim.events_fired,
        "instants_opened": simulation.sim.instants_opened,
        "member_deliveries": sum(member.gap.received_count
                                 for member in simulation.members.values()),
        "discards": dict(sorted(Counter(record.reason for buffer in buffers
                                        for record in buffer.records).items())),
        "long_term_held": sum(buffer.long_term_count for buffer in buffers),
        "streams": len(simulation.streams),
    }


def _load_baselines() -> dict:
    if not BASELINE_PATH.exists():
        return {}
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("controller", [*CONTROLLERS, "stream"])
def test_work_counts_match_baseline(controller: str) -> None:
    fresh = _stream_work_counts() if controller == "stream" else _work_counts(controller)
    if os.environ.get(UPDATE_ENV):
        baselines = _load_baselines()
        baselines[controller] = fresh
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(dict(sorted(baselines.items())), handle, indent=2)
            handle.write("\n")
        pytest.skip(f"work counts for {controller!r} updated ({UPDATE_ENV} set)")
    expected = _load_baselines().get(controller)
    assert expected is not None, (
        f"no work counts for {controller!r}; run with {UPDATE_ENV}=1 and commit "
        "tests/baselines/work_counts.json"
    )
    assert fresh == expected, (
        f"{controller}: the run did different work ({fresh} != {expected}).  A "
        "cheaper call path must send, schedule and trace exactly what it did."
    )

