"""Workloads: traffic generators and mobility (system S11 in DESIGN.md)."""

from repro.workloads.mobility import DistanceLoss, MobilityManager
from repro.workloads.traffic import (
    BurstStream,
    PoissonStream,
    RampStream,
    TrafficGenerator,
    UniformStream,
)

__all__ = [
    "BurstStream",
    "DistanceLoss",
    "MobilityManager",
    "PoissonStream",
    "RampStream",
    "TrafficGenerator",
    "UniformStream",
]
