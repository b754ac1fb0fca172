"""Workloads and canned scenarios (system S11 in DESIGN.md)."""

from repro.workloads.mobility import DistanceLoss, MobilityManager
from repro.workloads.scenarios import (
    InitialHoldersResult,
    SearchResult,
    run_initial_holders,
    run_search,
)
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
    "InitialHoldersResult",
    "MobilityManager",
    "PoissonStream",
    "RampStream",
    "SearchResult",
    "TrafficGenerator",
    "UniformStream",
    "run_initial_holders",
    "run_search",
]
