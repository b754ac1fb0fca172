"""A sender that leaves or crashes ends the session; the run goes on.

Without ``protect_sender`` churn or mobility may take the sender away.
From then on nothing more is sent from it — no scheduled multicast, no
congestion-paced send, no FEC parity flush — receivers stop reporting
feedback to it, and ``messages`` counts what was actually multicast.
Each run still reaches its horizon under the invariant oracle.
"""

from dataclasses import replace

import pytest

from repro.scenario.builder import scenario
from repro.scenario.library import get_scenario

DEPARTURES = ("member_left", "member_crashed")


def churn_spec(controller=None):
    builder = (
        scenario("departed_sender", seed=0)
        .single_region(6)
        .uniform(20, 10.0)
        .loss(p=0.1)
        .fec("proactive", block_size=4, parity=1, flush_after=50.0)
        .churn(crash_rate=0.02, leave_rate=0.01, protect_sender=False)
        .measure(horizon=400.0, oracle=True)
    )
    if controller is not None:
        builder = builder.congestion(controller)
    return builder.spec()


def mobile_spec(seed):
    spec = get_scenario("mobile_handoff")
    return replace(
        spec,
        seed=seed,
        mobility=replace(spec.mobility, protect_sender=False),
        measurement=replace(spec.measurement, oracle=True),
    )


CASES = [
    pytest.param(churn_spec(), id="churn"),
    pytest.param(churn_spec("tfmcc"), id="churn-tfmcc"),
    *(pytest.param(mobile_spec(seed), id=f"mobility-seed{seed}") for seed in range(5)),
]


@pytest.mark.parametrize("spec", CASES)
def test_a_departed_sender_ends_the_session(spec):
    built = spec.build()
    group = built.simulation
    sender = group.sender
    senders = []  # (time, src) of every multicast
    network_multicast = group.network.multicast

    def recording_multicast(src, *args, **kwargs):
        senders.append((group.sim.now, src))
        return network_multicast(src, *args, **kwargs)

    group.network.multicast = recording_multicast
    built.run()
    summary = built.summary()

    assert group.sim.now == spec.measurement.horizon
    assert summary["invariant_violations"] == 0
    assert not sender.member.alive
    [departure] = [record.time for record in group.trace.records
                   if record.kind in DEPARTURES and record.fields["node"] == sender.node_id]
    assert [time for time, src in senders if src == sender.node_id and time > departure] == []
    assert summary["messages"] == sender.max_seq == group.trace.count("message_sent")
    assert sender.max_seq < spec.traffic.count  # the departure cut the stream short
