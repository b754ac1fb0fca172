#!/usr/bin/env python3
"""FEC repair walkthrough: parity vs the pull epidemic on a lossy WAN.

Two regions of 25 members, the sender upstream.  Every message has a
30% chance of missing the *entire* child region (a regional loss — the
worst case for RRMP, because recovery must cross the WAN throttled by
the λ remote-request budget, §2.2).  The whole setup is one scenario
spec; we run the identical seeded workload three times, varying only
the ``fec`` line:

* ``off``        — pure pull recovery (the paper's protocol);
* ``proactive``  — 2 parity messages per block of 8, multicast as each
  block fills: receivers decode gaps locally;
* ``reactive``   — parity only for blocks the sender observes a
  retransmission request for.

Run:  python examples/fec_repair.py
"""

from repro.metrics.fec import summarize_fec
from repro.metrics.stats import Summary
from repro.scenario.builder import scenario

MESSAGES = 24
INTERVAL = 5.0
HORIZON = 4_000.0


def run_mode(mode: str) -> None:
    built = (
        scenario("fec-repair", seed=7)
        .chain(25, 25)
        .uniform(MESSAGES, INTERVAL)
        .regional_loss(region_loss=0.3)
        .fec(mode, block_size=8, parity=2)
        .protocol(remote_lambda=4.0, session_interval=50.0)
        .measure(horizon=HORIZON)
        .run()
    )
    simulation = built.simulation

    latencies = simulation.recovery_latencies()
    stats = simulation.network.stats
    report = summarize_fec(simulation.trace)
    delivered = all(simulation.all_received(seq) for seq in range(1, MESSAGES + 1))
    print(f"== fec.mode={mode} ==")
    print(f"  all delivered:        {delivered}")
    print(f"  recoveries completed: {len(latencies)}")
    print(f"  recovery latency:     {Summary.from_values(latencies)}")
    print(f"  remote requests:      {stats.sent_by_type.get('RemoteRequest', 0)}")
    print(f"  repairs sent:         {stats.sent_by_type.get('Repair', 0)}")
    if mode != "off":
        print(f"  blocks encoded:       {report.blocks_encoded} "
              f"(triggers: {dict(report.triggers)})")
        print(f"  gaps decoded:         {report.recovered}")
        print(f"  parity overhead:      {report.parity_bytes} B "
              f"({report.overhead_ratio:.0%} of data)")
    print()


def main() -> None:
    print("== FEC repair vs pull recovery: 2x25 members, 30% regional loss ==\n")
    for mode in ("off", "proactive", "reactive"):
        run_mode(mode)
    print("proactive FEC spends r/k extra bandwidth to cut recovery latency")
    print("and WAN requests; reactive spends parity only on blocks whose")
    print("loss a request revealed to the sender — with randomly-addressed")
    print("remote requests that rarely happens before pull recovery wins.")


if __name__ == "__main__":
    main()
