"""repro — reproduction of *Optimizing Buffer Management for Reliable
Multicast* (Xiao, Birman, van Renesse; DSN 2002).

The package implements the RRMP randomized reliable multicast protocol
and its two-phase buffer-management algorithm (feedback-based
short-term buffering + randomized long-term buffering + bufferer
search), together with every substrate the paper's evaluation needs: a
discrete-event simulator, a region-hierarchy network model, baseline
buffering policies and the experiment harness that regenerates each
figure.

Quickstart
----------
>>> from repro import FixedHolderCount, PolicySpec, RrmpSimulation, single_region
>>> sim = RrmpSimulation(single_region(50), config=PolicySpec(c=8.0), seed=7,
...                      outcome=FixedHolderCount(5))
>>> _ = sim.sender.multicast()
>>> _ = sim.run(duration=500.0)
>>> sim.all_received(1)
True
"""

from repro.core import (
    BufferPolicy,
    FixedTimePolicy,
    NeverDiscardPolicy,
    NoBufferPolicy,
    TwoPhaseBufferPolicy,
)
from repro.net import (
    BernoulliOutcome,
    ConstantLatency,
    FixedHolderCount,
    FixedHolders,
    Hierarchy,
    HierarchicalLatency,
    PerfectOutcome,
    RegionCorrelatedOutcome,
    balanced_tree,
    chain,
    single_region,
    star,
)
from repro.fec import FecBlockDecoder, FecEncoder, Gf256Codec, XorCodec, make_codec
from repro.protocol import (
    FEC_OFF,
    FEC_PROACTIVE,
    FEC_REACTIVE,
    DataMessage,
    FecSpec,
    ParityMessage,
    PolicySpec,
    RrmpMember,
    RrmpSender,
    RrmpSimulation,
)
# NOTE: the `scenario()` builder function is deliberately NOT re-exported
# here — a top-level `scenario` name would shadow the `repro.scenario`
# submodule attribute.  Use ``from repro.scenario import scenario``.
from repro.scenario import (
    ScenarioBuilder,
    ScenarioSpec,
    build_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.sim import RandomStreams, Simulator, TraceLog

__version__ = "1.1.0"

__all__ = [
    "BernoulliOutcome",
    "BufferPolicy",
    "ConstantLatency",
    "DataMessage",
    "FEC_OFF",
    "FEC_PROACTIVE",
    "FEC_REACTIVE",
    "FecBlockDecoder",
    "FecEncoder",
    "FecSpec",
    "FixedHolderCount",
    "FixedHolders",
    "FixedTimePolicy",
    "Gf256Codec",
    "Hierarchy",
    "HierarchicalLatency",
    "NeverDiscardPolicy",
    "NoBufferPolicy",
    "ParityMessage",
    "PerfectOutcome",
    "PolicySpec",
    "RandomStreams",
    "RegionCorrelatedOutcome",
    "RrmpMember",
    "RrmpSender",
    "RrmpSimulation",
    "ScenarioBuilder",
    "ScenarioSpec",
    "Simulator",
    "TraceLog",
    "TwoPhaseBufferPolicy",
    "XorCodec",
    "balanced_tree",
    "build_scenario",
    "chain",
    "get_scenario",
    "make_codec",
    "register_scenario",
    "scenario_names",
    "single_region",
    "star",
    "__version__",
]
