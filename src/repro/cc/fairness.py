"""Fairness duel: two competing adaptive senders on one bottleneck.

Protocol-level fairness across *sessions* is a controller property, so
it is evaluated the way the congestion-control literature does: two
controller instances share a bottleneck of ``capacity`` messages per
second inside one simulator.  Every ``feedback_interval`` each flow
receives a synthetic :class:`~repro.protocol.messages.FeedbackReport`
whose loss estimate is the bottleneck's excess ratio::

    p = max(0, (r_a + r_b - capacity) / (r_a + r_b))

— both flows observe the same congestion signal, as co-located
receivers behind a shared constrained link would.  One flow starts at
the rate ceiling and the other at the floor, so the duel measures
*convergence to fairness*, not a symmetric fixed point.

The verdict is Jain's fairness index over the flows' mean rates in the
second half of the run (the first half is convergence transient)::

    J(x_1..x_n) = (sum x_i)^2 / (n * sum x_i^2)

J = 1 is a perfectly fair split; J = 1/n is maximal unfairness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple

from repro.cc.controller import controller_for
from repro.protocol.config import CongestionSpec
from repro.protocol.messages import FeedbackReport
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTask


def jain_index(rates: Sequence[float]) -> float:
    """Jain's fairness index of *rates* (1.0 = perfectly fair)."""
    if not rates:
        return 1.0
    total = sum(rates)
    squares = sum(rate * rate for rate in rates)
    if squares <= 0.0:
        return 1.0
    return (total * total) / (len(rates) * squares)


@dataclass
class FairnessResult:
    """Outcome of one shared-bottleneck duel."""

    controller: str
    capacity: float
    rates: Tuple[float, ...]       # mean msgs/s per flow, second half
    jain: float
    utilization: float             # sum(rates) / capacity
    samples: int

    def to_dict(self) -> dict:
        """JSON-ready form (used by the CC ablation experiment)."""
        return {
            "controller": self.controller,
            "capacity": self.capacity,
            "rates": list(self.rates),
            "jain": self.jain,
            "utilization": self.utilization,
            "samples": self.samples,
        }


def run_fairness_duel(controller: str, *,
                      capacity: float = 200.0,
                      duration_ms: float = 60_000.0,
                      feedback_interval: float = 50.0,
                      rtt_ms: float = 10.0,
                      config: CongestionSpec = None) -> FairnessResult:
    """Run two *controller* flows against a shared bottleneck.

    Deterministic: the bottleneck model is closed-form, so the result
    is a pure function of the arguments.
    """
    config = replace(config or CongestionSpec(), controller=controller,
                     feedback_interval=feedback_interval)
    sim = Simulator()
    flows = [
        controller_for(config, initial_rate=config.max_rate),
        controller_for(config, initial_rate=config.min_rate),
    ]
    samples: Tuple[list, list] = ([], [])
    measure_from = duration_ms / 2.0

    def tick() -> None:
        now = sim.now
        total = sum(flow.rate for flow in flows)
        loss = max(0.0, (total - capacity) / total) if total > 0 else 0.0
        for index, flow in enumerate(flows):
            report = FeedbackReport(
                receiver=index,
                loss_estimate=loss,
                rtt_ms=rtt_ms,
                max_seq=0,
                received=0,
            )
            flow.on_feedback(now, report)
            if now >= measure_from:
                samples[index].append(flow.rate)

    task = PeriodicTask(sim, feedback_interval, tick)
    task.start()
    sim.run(until=duration_ms)
    task.stop()

    means = tuple(
        sum(values) / len(values) if values else 0.0 for values in samples
    )
    return FairnessResult(
        controller=controller,
        capacity=capacity,
        rates=means,
        jain=jain_index(means),
        utilization=sum(means) / capacity if capacity > 0 else 0.0,
        samples=len(samples[0]),
    )
