"""Buffer-occupancy probes.

The policy-comparison experiments ask "how much buffer space does each
scheme hold over time?" — for RRMP the interesting claim is that load
is *spread* across members (conclusion), versus a repair server that
concentrates it.  :class:`OccupancyProbe` samples any occupancy
callable on a fixed period.
"""

from __future__ import annotations

from typing import Callable

from repro.metrics.timeseries import StepSeries
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTask


class OccupancyProbe:
    """Samples a scalar occupancy function periodically into a series."""

    def __init__(
        self,
        sim: Simulator,
        sample_fn: Callable[[], float],
        period: float = 5.0,
    ) -> None:
        self.series = StepSeries()
        self._sample_fn = sample_fn
        self._task = PeriodicTask(sim, period, self._sample)
        self._sim = sim
        self._task.start(phase=0.0)

    def _sample(self) -> None:
        self.series.record(self._sim.now, float(self._sample_fn()))

    def stop(self) -> None:
        """Stop sampling."""
        self._task.stop()

    def average(self) -> float:
        """Mean of the sampled occupancy values."""
        if self.series.last_time is None:
            return 0.0
        points = self.series.sample(0.0, self.series.last_time, self._task.interval)
        return sum(v for _, v in points) / len(points)
