"""Network substrate (system S2 in DESIGN.md).

Regions and the error-recovery hierarchy (:mod:`repro.net.topology`),
one-way latency models (:mod:`repro.net.latency`), loss models
(:mod:`repro.net.loss`), the packet-level transport
(:mod:`repro.net.transport`) and IP-multicast outcome models
(:mod:`repro.net.ipmulticast`).
"""

from repro.net.ipmulticast import (
    BernoulliOutcome,
    FixedHolderCount,
    FixedHolders,
    MulticastOutcome,
    PerfectOutcome,
    RegionCorrelatedOutcome,
)
from repro.net.latency import (
    ConstantLatency,
    HierarchicalLatency,
    LatencyModel,
)
from repro.net.loss import (
    BernoulliLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    ReceiverSetLoss,
)
from repro.net.packet import KIND_CONTROL, KIND_DATA, Packet
from repro.net.topology import (
    Hierarchy,
    NodeId,
    Region,
    RegionId,
    TopologyError,
    balanced_tree,
    chain,
    single_region,
    star,
)
from repro.net.transport import Endpoint, Network, NetworkStats

__all__ = [
    "BernoulliLoss",
    "BernoulliOutcome",
    "ConstantLatency",
    "Endpoint",
    "FixedHolderCount",
    "FixedHolders",
    "GilbertElliottLoss",
    "Hierarchy",
    "HierarchicalLatency",
    "KIND_CONTROL",
    "KIND_DATA",
    "LatencyModel",
    "LossModel",
    "MulticastOutcome",
    "Network",
    "NetworkStats",
    "NoLoss",
    "NodeId",
    "Packet",
    "PerfectOutcome",
    "Region",
    "RegionCorrelatedOutcome",
    "RegionId",
    "ReceiverSetLoss",
    "TopologyError",
    "balanced_tree",
    "chain",
    "single_region",
    "star",
]
