"""Mega-scale simulation path: array-backed members + region sharding.

The classic engine (:mod:`repro.protocol`) models every receiver as a
Python object with its own timers — faithful, but ~0.4M engine ops/s
caps validated runs at ~1,000 members.  This package trades per-member
event granularity for per-*(region, message)* aggregate events over
numpy struct-of-arrays state, which is what lets one machine reach
100,000 members (see EXPERIMENTS.md "Mega-scale methodology"):

* :mod:`repro.scale.pool` — :class:`FlatMemberPool`, the
  struct-of-arrays member state (receipt/buffer/long-term bitmaps,
  receive times, idle-timer deadlines);
* :mod:`repro.scale.engine` — :class:`FlatShard`, the region-sharded
  flat engine with epoch-barrier synchronization, plus
  :func:`run_flat` (serial, in-process sharded, or one OS process per
  shard) and the order-independent :class:`CommutativeTraceDigest`.

The named workloads of this tier (``scale_10k``, ``scale_100k``) live in
the one scenario registry (:mod:`repro.scenario.library`, registered
with ``engine="flat"``); ``--shards`` on ``scenarios run`` partitions
their regions across flat engines and is refused for object-engine
scenarios, which have no sharded mode.
"""

from repro.scale.engine import (
    CommutativeTraceDigest,
    FlatRunResult,
    FlatShard,
    run_flat,
)
from repro.scale.pool import FlatMemberPool

__all__ = [
    "CommutativeTraceDigest",
    "FlatMemberPool",
    "FlatRunResult",
    "FlatShard",
    "run_flat",
]
