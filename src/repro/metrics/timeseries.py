"""Time-series recording for simulation measurements.

Figure 7 plots two curves over simulated time — members that have
*received* a message and members that still *buffer* it.  Both are step
functions; :class:`StepSeries` records the steps and
:meth:`StepSeries.sample` turns them into evenly-spaced points for
tabular output.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Tuple


class StepSeries:
    """A piecewise-constant time series (right-continuous steps)."""

    def __init__(self, initial: float = 0.0) -> None:
        self.initial = initial
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Set the series value from *time* onward."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"out-of-order sample at t={time} (last was {self._times[-1]})"
            )
        if self._times and self._times[-1] == time:
            self._values[-1] = value
            return
        self._times.append(time)
        self._values.append(value)

    def value_at(self, time: float) -> float:
        """The series value at *time* (initial value before first step)."""
        index = bisect_right(self._times, time) - 1
        if index < 0:
            return self.initial
        return self._values[index]

    def sample(self, start: float, stop: float, dt: float) -> List[Tuple[float, float]]:
        """Evenly-spaced ``(t, value)`` points on [start, stop]."""
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt!r}")
        points: List[Tuple[float, float]] = []
        t = start
        while t <= stop + 1e-9:
            points.append((t, self.value_at(t)))
            t += dt
        return points

    @property
    def last_time(self) -> Optional[float]:
        """Time of the last recorded step, if any."""
        return self._times[-1] if self._times else None

    def __len__(self) -> int:
        return len(self._times)
