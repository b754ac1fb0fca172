"""repro — reproduction of *Optimizing Buffer Management for Reliable
Multicast* (Xiao, Birman, van Renesse; DSN 2002).

The package implements the RRMP randomized reliable multicast protocol
and its two-phase buffer-management algorithm (feedback-based
short-term buffering + randomized long-term buffering + bufferer
search), together with every substrate the paper's evaluation needs: a
discrete-event simulator, a region-hierarchy network model, baseline
buffering policies and the experiment harness that regenerates each
figure.

Each name has one import path, the module that defines it: package
``__init__`` files re-export nothing but the seven names the perf ledger
imports through ``repro.scenario``, ``repro.runner`` and
``repro.experiments``.

Quickstart
----------
>>> from repro.net.ipmulticast import FixedHolderCount
>>> from repro.net.topology import single_region
>>> from repro.protocol.config import PolicySpec
>>> from repro.protocol.rrmp import RrmpSimulation
>>> sim = RrmpSimulation(single_region(50), config=PolicySpec(c=8.0), seed=7,
...                      outcome=FixedHolderCount(5))
>>> _ = sim.sender.multicast()
>>> _ = sim.run(duration=500.0)
>>> sim.all_received(1)
True
"""

__version__ = "1.1.0"
