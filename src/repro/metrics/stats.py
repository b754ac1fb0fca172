"""Summary statistics for experiment measurements.

Pure-Python descriptive statistics (no numpy dependency in the hot
path) with the percentile definition experiments in this repo use
consistently: linear interpolation between closest ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ValueError("mean() of empty sequence")
    return sum(values) / len(values)


def mean_defined(values: Iterable[Optional[float]]) -> float:
    """Mean of the values that are neither ``None`` nor NaN (a run that
    measured nothing); NaN when no value is left."""
    defined = [value for value in values if value is not None and value == value]
    return mean(defined) if defined else float("nan")


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0 ≤ q ≤ 100), linear interpolation."""
    if not values:
        raise ValueError("percentile() of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (0.0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a measurement sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    maximum: float

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "Summary":
        """Build a summary; raises ``ValueError`` on an empty sample."""
        data: List[float] = list(values)
        if not data:
            raise ValueError("Summary.from_values() of empty sample")
        return cls(
            count=len(data),
            mean=mean(data),
            stdev=stdev(data),
            minimum=min(data),
            p50=percentile(data, 50),
            p95=percentile(data, 95),
            maximum=max(data),
        )

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f} sd={self.stdev:.2f} "
            f"min={self.minimum:.2f} p50={self.p50:.2f} p95={self.p95:.2f} "
            f"max={self.maximum:.2f}"
        )
