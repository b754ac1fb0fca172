"""Mega-scale simulation path: array-backed members + region sharding.

The classic engine (:mod:`repro.protocol`) models every receiver as a
Python object with its own timers — faithful, but ~0.4M engine ops/s
caps validated runs at ~1,000 members.  This package trades per-member
event granularity for per-*(region, message)* aggregate events over
numpy column state, which is what lets one machine reach
100,000 members (see EXPERIMENTS.md "Mega-scale methodology"):

* :mod:`repro.scale.pool` — :class:`~repro.scale.pool.FlatMemberPool`, the member state
  as one column per (region, message): receipt/buffer/long-term/give-up
  bitmaps while the column is open, its long-term holders once closed;
* :mod:`repro.scale.engine` — :class:`~repro.scale.engine.FlatShard`, the region-sharded
  flat engine with epoch-barrier synchronization, plus
  :func:`~repro.scale.engine.run_flat` (serial, in-process sharded, or one OS process per
  shard) and the order-independent
  :class:`~repro.scale.engine.CommutativeTraceDigest`.

The named workloads of this tier (``scale_10k``, ``scale_100k``) are
the flat tier of the scenario catalogue (:mod:`repro.scenario.library`);
``--shards`` on ``scenarios run`` partitions their regions across flat
engines and is refused for object-engine scenarios, which have no
sharded mode.
"""
