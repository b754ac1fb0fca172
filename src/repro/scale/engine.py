"""The region-sharded flat simulation engine.

One :class:`FlatShard` advances a subset of a scenario's regions on its
own :class:`~repro.sim.engine.Simulator`, with all member state in a
:class:`~repro.scale.pool.FlatMemberPool`.  Instead of per-member
events, the engine schedules one event per *(region, message)*
transition and performs the member fan-out as a vectorized array
operation:

* ``_deliver`` — the IP multicast reaches a region: one Bernoulli draw
  vector decides who misses, receipt/buffer/deadline rows update in one
  shot;
* ``_detect`` → ``_round`` — the region's missing members detect the
  gap together and pick repair sources among the region's current
  bufferers (one vectorized random choice);
* ``_remote_serve`` / ``_apply`` — parent-region search when a region
  holds no copy, and the repair application;
* ``_sweep`` — the §3 idle-timer sweep: the columns whose earliest
  idle deadline has come are read as contiguous ``[start:stop, col]``
  slices and their expired short-term copies flip the C/n long-term
  coin in one batch.

Sharding and determinism
------------------------
Regions are partitioned round-robin across shards.  Cross-region
traffic (remote requests and their repairs) never targets a simulator
directly: it goes to the shard's ``outbox`` and is exchanged at **epoch
barriers** whose width is the inter-region latency floor — no message
sent in epoch *k* can arrive before barrier *k*, so conservative
time-windowed synchronization is safe (classic PDES lookahead).  The
*serial* flat engine runs the same barrier loop with one shard, all
cross-shard arrivals carry a fixed sub-resolution offset (``XEPS``)
pushing them strictly past their barrier, and every random draw comes
from a per-``(purpose, region, seq)`` counter-derived stream — so a
sharded run makes exactly the draws, transitions and trace records of
the serial run, and :class:`CommutativeTraceDigest` (order-independent
by construction) matches byte-for-byte.

``processes=True`` runs each shard in its own OS process connected by
pipes; the epoch protocol is identical, so the digest still matches.

Most streams (a region's multicast outcome and repair picks per seq)
are drawn from once: a shard seeds them in one vectorized pass
(:mod:`repro.scale.streams`) and ``_once`` writes a key's state into one
shared generator, which draws bit for bit what a ``default_rng`` would.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.topology import Hierarchy, RegionId
from repro.scale.pool import FlatMemberPool
from repro.scale.streams import pcg64_states
from repro.scenario.materialize import build_config, build_hierarchy
from repro.scenario.spec import ScenarioSpec
from repro.sim.engine import Simulator
from repro.sim.randomness import derive_seed
from repro.sim.tracing import TraceLog, TraceRecord, record_line

#: Sub-resolution time offset added to every cross-shard arrival so it
#: lands strictly after its epoch barrier even when the send time plus
#: the hop latency rounds to exactly the barrier (2^-20 ms is exact in
#: binary floating point, so serial and sharded arithmetic agree).
XEPS = 2.0 ** -20

#: Epoch-barrier slack for floating-point deadline comparisons.
_TIME_EPS = 1e-9

#: Cross-shard message: (kind, dest region, seq, src region, arrival).
Message = Tuple[str, RegionId, int, RegionId, float]


_DIGEST_MOD = 1 << 256


class CommutativeTraceDigest:
    """Order-independent digest of a trace stream.

    Each record's canonical line (:func:`repro.sim.tracing.record_line`)
    is SHA-256 hashed and the 256-bit values are summed modulo 2^256;
    the printable digest appends the record count, so truncated streams
    cannot collide with complete ones.  Commutativity is what makes the
    digest shard-invariant: shards emit the same *set* of records as a
    serial run but interleave them differently, and merging is just
    adding the per-shard accumulators.
    """

    def __init__(self) -> None:
        self._acc = 0
        self.count = 0

    def attach(self, trace: TraceLog) -> "CommutativeTraceDigest":
        """Subscribe to *trace*; returns self for chaining."""
        trace.subscribe(self.update)
        return self

    def update(self, record: TraceRecord) -> None:
        """Hash one record (usable directly as a trace subscriber)."""
        line_hash = int.from_bytes(
            hashlib.sha256(record_line(record)).digest(), "big"
        )
        self._acc = (self._acc + line_hash) % _DIGEST_MOD
        self.count += 1

    def merge(self, acc: int, count: int) -> None:
        """Fold another digest's raw state in (shard reduction)."""
        self._acc = (self._acc + acc) % _DIGEST_MOD
        self.count += count

    @property
    def state(self) -> Tuple[int, int]:
        """The raw ``(accumulator, count)`` state (picklable)."""
        return self._acc, self.count

    def hexdigest(self) -> str:
        """``<64 hex chars>-<record count>``."""
        return f"{self._acc:064x}-{self.count}"


def _flat_unsupported(spec: ScenarioSpec) -> Optional[str]:
    """Why the flat engine cannot run *spec* (None = it can).

    The flat engine covers the scale-tier envelope: stream traffic over
    a static membership with independent per-receiver loss and the
    two-phase policy.  Everything else belongs to the object engine.
    """
    if spec.traffic.kind != "uniform" or spec.traffic.count < 1:
        return f"traffic kind {spec.traffic.kind!r} (need uniform with count >= 1)"
    if spec.loss.kind not in ("none", "bernoulli"):
        return f"loss kind {spec.loss.kind!r} (need none or bernoulli)"
    if spec.churn.kind != "none":
        return "churn (flat membership is static)"
    if spec.fec.mode != "off":
        return "FEC (no flat parity pipeline)"
    if spec.policy.kind != "two_phase":
        return f"policy kind {spec.policy.kind!r} (need two_phase)"
    if spec.policy.max_recovery_time is None:
        return "unbounded max_recovery_time (flat retries need a give-up bound)"
    return None


def require_flat_support(spec: ScenarioSpec) -> None:
    """Raise ``ValueError`` if *spec* is outside the flat envelope."""
    problem = _flat_unsupported(spec)
    if problem is not None:
        raise ValueError(f"flat engine cannot run spec {spec.name!r}: {problem}")


class _FlatBufferView:
    """Buffer facade for the oracle's index cross-check (always clean:
    the long-term bitmap *is* the index, there is nothing to drift)."""

    __slots__ = ()

    def check_index(self) -> Tuple[()]:
        return ()


class _FlatPolicyView:
    __slots__ = ()
    buffer = _FlatBufferView()


_POLICY_VIEW = _FlatPolicyView()


class FlatMemberView:
    """One member's oracle-facing view over the pool arrays.

    Built lazily (only for :meth:`FlatShard.alive_members`, i.e. the
    oracle's end-of-run sweep); presents the same surface as
    :class:`~repro.protocol.member.RrmpMember` where the invariants
    look.
    """

    __slots__ = ("node_id", "_pool")

    policy = _POLICY_VIEW

    def __init__(self, node_id: int, pool: FlatMemberPool) -> None:
        self.node_id = node_id
        self._pool = pool

    def unresolved_gaps(self) -> List[int]:
        return self._pool.member_unresolved_gaps(self.node_id)

    def buffered_seqs(self) -> List[int]:
        return self._pool.member_buffered_seqs(self.node_id)

    def is_buffering(self, seq: int) -> bool:
        return self._pool.member_is_buffering(self.node_id, seq)

    def active_recovery_seqs(self) -> Tuple[()]:
        # Flat recoveries live in (region, seq) events, not per-member
        # processes; at quiescence none can be pending by construction.
        return ()


class FlatShard:
    """One shard of a flat run: a region subset on its own simulator.

    Exposes the simulation surface the invariant oracle inspects
    (``trace``, ``sim``, ``config``, ``hierarchy``,
    :meth:`alive_members`), so ``InvariantOracle().attach(shard)`` works
    unchanged — every invariant is member- or region-local, which is
    what makes per-shard validation of a sharded run sound.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        owned: Optional[Sequence[RegionId]] = None,
        keep_records: bool = False,
        digest: bool = False,
        hierarchy: Optional[Hierarchy] = None,
    ) -> None:
        require_flat_support(spec)
        self.spec = spec
        # Static and only read: one run's in-process shards share it.
        self.hierarchy = build_hierarchy(spec.topology) if hierarchy is None else hierarchy
        self.config = build_config(spec.policy, spec.fec)
        self.sim = Simulator()
        self.trace = TraceLog(keep_records=keep_records)
        self.digest = CommutativeTraceDigest().attach(self.trace) if digest else None
        self.pool = FlatMemberPool(self.hierarchy, spec.traffic.count)
        all_regions = self.pool.region_ids
        self.owned: List[RegionId] = sorted(owned) if owned is not None else all_regions
        unknown = set(self.owned) - set(all_regions)
        if unknown:
            raise ValueError(f"unknown shard regions: {sorted(unknown)}")

        # Derived protocol parameters.
        topology = spec.topology
        policy = spec.policy
        self.intra = topology.intra_one_way
        self.inter = topology.inter_one_way
        self.idle_threshold = policy.idle_threshold
        self.long_term_c = policy.c
        self.session_interval = policy.session_interval
        self.max_recovery_time = policy.max_recovery_time
        self.loss_p = spec.loss.p if spec.loss.kind == "bernoulli" else 0.0
        # A remote retry must outlive one full parent round trip.
        self.remote_retry = 2.0 * max(self.inter, self.intra) + self.intra + 1.0

        # Sender: first member of the first root region, its copies
        # pinned long-term (the sending application always holds its own
        # stream, so the group is never globally copyless).
        self.sender_node = min(
            self.hierarchy.regions[rid].members[0]
            for rid in all_regions
            if self.hierarchy.regions[rid].parent_id is None
        )
        self.sender_region = self.hierarchy.region_id_of(self.sender_node)

        self.outbox: List[Message] = []
        self._rngs: Dict[Tuple[Any, ...], np.random.Generator] = {}
        once = [(purpose, region_id, seq)
                for region_id in self.owned
                for seq in range(1, spec.traffic.count + 1)
                for purpose in ("mcast", "recovery")]
        self._seeded = dict(zip(once, pcg64_states(
            derive_seed(spec.seed, ("flat",) + key) for key in once
        )))
        self._bits = np.random.PCG64()
        self._drawer = np.random.Generator(self._bits)
        self._detected_at: Dict[Tuple[RegionId, int], float] = {}
        self._next_sweep: Dict[RegionId, Optional[float]] = {}
        #: Per region and column, the earliest idle deadline still pending
        #: among the column's short-term copies; a sweep reads only the
        #: columns whose entry has come.  ``sweep_cells`` counts the cells
        #: the idle machinery examined: a column per sweep that judged it
        #: and a column per request refresh that re-read its minimum.
        self._live: Dict[RegionId, Dict[int, float]] = {rid: {} for rid in self.owned}
        self.sweep_cells = 0
        self._recovery_latency_sum = 0.0
        self._recovery_count = 0

        # Region hop distances from the sender and the initial multicast
        # deliveries for the regions this shard owns.  Delivery times are
        # spec-derived, so every shard schedules its own regions up
        # front — the multicast itself never crosses the shard fabric.
        traffic = spec.traffic
        for region_id in self.owned:
            probe = self.hierarchy.regions[region_id].members[0]
            hops = self.hierarchy.region_distance(self.sender_node, probe)
            latency = self.intra if hops == 0 else self.inter * hops
            for seq in range(1, traffic.count + 1):
                send_time = traffic.start + (seq - 1) * traffic.interval
                self.sim.at(send_time + latency, self._deliver, region_id, seq)

    # ------------------------------------------------------------------
    # Deterministic randomness
    # ------------------------------------------------------------------
    def _rng(self, *key: Any) -> np.random.Generator:
        """The cached numpy stream for *key*, derived from the master seed.

        Streams are keyed per (purpose, region, seq[, src region]) so a
        shard draws exactly what the serial run draws for its regions,
        no matter how the other regions' events interleave.  Serves the
        ``coin`` (every sweep) and ``serve`` (rare) streams.
        """
        generator = self._rngs.get(key)
        if generator is None:
            generator = self._rngs[key] = np.random.default_rng(
                derive_seed(self.spec.seed, ("flat",) + key)
            )
        return generator

    def _once(self, *key: Any) -> np.random.Generator:
        """The stream of a key drawn from once (``mcast``, ``recovery``):
        its bulk-seeded PCG64 state written into the shard's one shared
        generator, which then draws what ``default_rng(derive_seed(...))``
        would.  Valid until the next call; a key drawn twice raises
        ``KeyError``."""
        state, inc = self._seeded.pop(key)
        self._bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
        return self._drawer

    # ------------------------------------------------------------------
    # Protocol transitions (one event per region x message)
    # ------------------------------------------------------------------
    def _deliver(self, region_id: RegionId, seq: int) -> None:
        now = self.sim.now
        start, stop = self.pool.rows(region_id)
        col = seq - 1
        count = stop - start
        if self.loss_p > 0.0:
            missed = self._once("mcast", region_id, seq).random(count) < self.loss_p
        else:
            missed = np.zeros(count, dtype=bool)
        sender_here = start <= self.sender_node < stop
        if sender_here:
            missed[self.sender_node - start] = False
        got = ~missed
        pool = self.pool
        pool.received[start:stop, col] = got
        pool.buffered[start:stop, col] = got
        pool.receive_time[start:stop, col][got] = now
        pool.idle_deadline[start:stop, col][got] = now + self.idle_threshold
        if sender_here:
            pool.long_term[self.sender_node, col] = True
            pool.idle_deadline[self.sender_node, col] = np.inf
        trace = self.trace
        if trace.enabled:
            for offset in np.nonzero(got)[0]:
                node = start + int(offset)
                trace.emit(now, "member_received", node=node, seq=seq, via="multicast")
                trace.emit(now, "buffer_add", node=node, seq=seq)
            if sender_here:
                trace.emit(now, "long_term_selected",
                           node=self.sender_node, seq=seq, via="sender")
        if missed.any():
            self.sim.at(now + self._detect_delay(seq), self._detect, region_id, seq)
        if got.sum() > sender_here:
            self._short_term(region_id, col, now + self.idle_threshold)
        elif sender_here:
            # Only the pinned copy arrived: nothing for ``_live``, but a
            # delivery has always armed a sweep and ``events_fired`` is
            # part of the golden baselines.
            self._arm_sweep(region_id, now + self.idle_threshold)

    def _detect_delay(self, seq: int) -> float:
        """How long a missing region takes to notice the gap.

        Mid-stream losses surface when the *next* message arrives (one
        send interval); the final message has no successor, so its gap
        waits for the session heartbeat.
        """
        if seq < self.spec.traffic.count:
            return self.spec.traffic.interval
        if self.session_interval is not None:
            return self.session_interval
        return self.spec.traffic.interval

    def _detect(self, region_id: RegionId, seq: int) -> None:
        now = self.sim.now
        start, stop = self.pool.rows(region_id)
        col = seq - 1
        missing = ~self.pool.received[start:stop, col]
        if not missing.any():
            return
        self._detected_at[(region_id, seq)] = now
        trace = self.trace
        if trace.enabled:
            for offset in np.nonzero(missing)[0]:
                trace.emit(now, "loss_detected", node=start + int(offset), seq=seq)
        self._round(region_id, seq)

    def _round(self, region_id: RegionId, seq: int) -> None:
        """One recovery round: local repair, or escalate to the parent."""
        now = self.sim.now
        pool = self.pool
        start, stop = pool.rows(region_id)
        col = seq - 1
        missing = ~pool.received[start:stop, col] & ~pool.given_up[start:stop, col]
        if not missing.any():
            return
        detected = self._detected_at[(region_id, seq)]
        if now - detected > self.max_recovery_time + _TIME_EPS:
            pool.given_up[start:stop, col] |= missing
            trace = self.trace
            if trace.enabled:
                for offset in np.nonzero(missing)[0]:
                    trace.emit(now, "reliability_violation",
                               node=start + int(offset), seq=seq,
                               elapsed=now - detected)
            return
        holders = np.nonzero(pool.buffered[start:stop, col])[0]
        if holders.size:
            requesters = np.nonzero(missing)[0]
            picks = self._once("recovery", region_id, seq).integers(
                0, holders.size, requesters.size
            )
            served = start + holders[picks]
            # Requests refresh the chosen holders' idle timers on
            # arrival (§3.1 feedback) — but never un-pin +inf entries.
            np.maximum.at(
                pool.idle_deadline, (served, col),
                now + self.intra + self.idle_threshold,
            )
            self._refreshed(region_id, col)
            self.sim.at(now + 2.0 * self.intra, self._apply,
                        region_id, seq, "local-repair")
        else:
            parent = self.hierarchy.regions[region_id].parent_id
            if parent is not None:
                self.outbox.append(
                    ("serve", parent, seq, region_id, now + self.inter + XEPS)
                )
            # Retry until served or the give-up bound trips: the parent
            # (or this region, via its own recovery) may only hold a
            # copy later.
            self.sim.at(now + self.remote_retry, self._round, region_id, seq)

    def _remote_serve(self, region_id: RegionId, seq: int,
                      child_region: RegionId) -> None:
        """A child region's remote request reaches this (parent) region."""
        now = self.sim.now
        pool = self.pool
        start, stop = pool.rows(region_id)
        col = seq - 1
        holders = np.nonzero(pool.buffered[start:stop, col])[0]
        if not holders.size:
            return  # child keeps retrying; we may hold a copy later
        rng = self._rng("serve", region_id, seq, child_region)
        served = start + int(holders[int(rng.integers(0, holders.size))])
        pool.idle_deadline[served, col] = max(
            pool.idle_deadline[served, col], now + self.idle_threshold
        )
        self._refreshed(region_id, col)
        if self.trace.enabled:
            self.trace.emit(now, "remote_request_served", node=served, seq=seq,
                            to_region=child_region)
        self.outbox.append(
            ("repair", child_region, seq, region_id, now + self.inter + XEPS)
        )

    def _apply(self, region_id: RegionId, seq: int, via: str) -> None:
        """A repair arrives: every still-missing member delivers+buffers."""
        now = self.sim.now
        pool = self.pool
        start, stop = pool.rows(region_id)
        col = seq - 1
        missing = ~pool.received[start:stop, col] & ~pool.given_up[start:stop, col]
        if not missing.any():
            return
        pool.received[start:stop, col] |= missing
        pool.buffered[start:stop, col] |= missing
        pool.receive_time[start:stop, col][missing] = now
        pool.idle_deadline[start:stop, col][missing] = now + self.idle_threshold
        latency = now - self._detected_at[(region_id, seq)]
        recovered = int(missing.sum())
        self._recovery_latency_sum += latency * recovered
        self._recovery_count += recovered
        trace = self.trace
        if trace.enabled:
            for offset in np.nonzero(missing)[0]:
                node = start + int(offset)
                trace.emit(now, "member_received", node=node, seq=seq, via=via)
                trace.emit(now, "buffer_add", node=node, seq=seq)
                trace.emit(now, "recovery_completed", node=node, seq=seq,
                           latency=latency)
        self._short_term(region_id, col, now + self.idle_threshold)

    # ------------------------------------------------------------------
    # Idle sweeps (the §3 short-term phase, batched per region)
    # ------------------------------------------------------------------
    def _short_term(self, region_id: RegionId, col: int, when: float) -> None:
        """Members gained short-term copies in column *col*, idle at
        *when*: the one place that opens a column to the sweep, so no
        copy turns short-term without a sweep armed to judge it."""
        live = self._live[region_id]
        live[col] = min(live.get(col, when), when)
        self._arm_sweep(region_id, when)

    def _arm_sweep(self, region_id: RegionId, when: float) -> None:
        """Schedule a sweep at *when* unless one is due no later."""
        current = self._next_sweep.get(region_id)
        if current is not None and current <= when + _TIME_EPS:
            return
        self._next_sweep[region_id] = when
        self.sim.at(when, self._sweep, region_id)

    def _refreshed(self, region_id: RegionId, col: int) -> None:
        """A request raised idle deadlines in column *col*: re-read its
        earliest one (a raise cannot be folded into the old minimum)."""
        live = self._live[region_id]
        if col in live:
            start, stop = self.pool.rows(region_id)
            self.sweep_cells += stop - start
            self._pending(live, col, self.pool.idle_deadline[start:stop, col])

    @staticmethod
    def _pending(live: Dict[int, float], col: int, deadline: np.ndarray) -> None:
        """Set *col*'s entry to the earliest of its *deadline* slice, or
        retire the column when no short-term copy is left in it (only a
        short-term copy has a finite deadline)."""
        when = float(deadline.min())
        if when < np.inf:
            live[col] = when
        else:
            del live[col]

    def _sweep(self, region_id: RegionId) -> None:
        """Flip the C/n coin for each short-term copy whose timer ran out.

        Reads only the columns whose earliest pending deadline has come,
        each as its contiguous ``[start:stop, col]`` slice, so the cost
        follows the copies that are due, not the stream or the window of
        recent messages.  ``_live`` is kept exact where deadlines are
        written (``_short_term`` lowers an entry, ``_refreshed`` and this
        sweep re-derive it), so no due copy is missed and the next sweep
        is the earliest entry left.  Due copies are taken member-major,
        then by ascending seq: the i-th draw of the region's coin stream
        goes to the i-th due copy, which makes this order part of the
        digest contract.
        """
        now = self.sim.now
        pool = self.pool
        start, stop = pool.rows(region_id)
        live = self._live[region_id]
        horizon = now + _TIME_EPS
        found = sorted(col for col, when in live.items() if when <= horizon)
        deadlines = [pool.idle_deadline[start:stop, col] for col in found]
        due = [np.nonzero(deadline <= horizon)[0] for deadline in deadlines]
        sizes = [rows.size for rows in due]
        if found:
            self.sweep_cells += len(found) * (stop - start)
            keep_p = min(1.0, self.long_term_c / (stop - start))
            kept = self._rng("coin", region_id).random(sum(sizes)) < keep_p
            if len(found) > 1:
                # Draws are in member-major order across the due columns;
                # hand them back in column order.
                order = np.lexsort((np.repeat(found, sizes), np.concatenate(due)))
                drawn, kept = kept, np.empty_like(kept)
                kept[order] = drawn
            trace = self.trace
            offset = 0
            for col, deadline, rows, size in zip(found, deadlines, due, sizes):
                mine = kept[offset:offset + size]
                offset += size
                keep_rows, drop_rows = rows[mine], rows[~mine]
                pool.long_term[start:stop, col][keep_rows] = True
                pool.buffered[start:stop, col][drop_rows] = False
                deadline[rows] = np.inf
                self._pending(live, col, deadline)
                if trace.enabled:
                    for row in keep_rows.tolist():
                        trace.emit(now, "long_term_selected", node=start + row,
                                   seq=col + 1, via="coin-flip")
                    held = now - pool.receive_time[start:stop, col][drop_rows]
                    for row, duration in zip(drop_rows.tolist(), held.tolist()):
                        trace.emit(now, "buffer_discard", node=start + row,
                                   seq=col + 1, reason="idle",
                                   was_long_term=False, duration=duration)
        if live:
            when = min(live.values())
            self._next_sweep[region_id] = when
            self.sim.at(when, self._sweep, region_id)
        else:
            self._next_sweep[region_id] = None

    # ------------------------------------------------------------------
    # Shard fabric
    # ------------------------------------------------------------------
    def drain_outbox(self) -> List[Message]:
        """Take this epoch's cross-shard messages."""
        messages, self.outbox = self.outbox, []
        return messages

    def deliver_inbound(self, message: Message) -> None:
        """Schedule one cross-shard message for its arrival time."""
        kind, region_id, seq, src_region, arrival = message
        if kind == "serve":
            self.sim.at(arrival, self._remote_serve, region_id, seq, src_region)
        elif kind == "repair":
            self.sim.at(arrival, self._apply, region_id, seq, "remote-repair")
        else:  # pragma: no cover - fabric corruption guard
            raise ValueError(f"unknown cross-shard message kind {kind!r}")

    # ------------------------------------------------------------------
    # Oracle surface + accounting
    # ------------------------------------------------------------------
    def alive_members(self) -> List[FlatMemberView]:
        """Views of every member this shard owns (oracle end sweep)."""
        views: List[FlatMemberView] = []
        for region_id in self.owned:
            start, stop = self.pool.rows(region_id)
            views.extend(
                FlatMemberView(node, self.pool) for node in range(start, stop)
            )
        return views

    def stats(self) -> Dict[str, Any]:
        """This shard's contribution to the merged run summary."""
        delivered = 0
        total = 0
        violations = 0
        for region_id in self.owned:
            rows = self.pool.rows(region_id)
            delivered += self.pool.delivered_pairs(rows)
            violations += self.pool.given_up_pairs(rows)
            total += (rows[1] - rows[0]) * self.pool.message_count
        return {
            "delivered_pairs": delivered,
            "total_pairs": total,
            "reliability_violations": violations,
            "recoveries": self._recovery_count,
            "recovery_latency_sum_ms": self._recovery_latency_sum,
            "events_fired": self.sim.events_fired,
            "sim_time_ms": self.sim.now,
            "trace_records": self.digest.count if self.digest else None,
            "sweep_cells": self.sweep_cells,
        }


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
@dataclass
class FlatRunResult:
    """The merged outcome of a flat run (any shard count)."""

    spec_name: str
    seed: int
    shards: int
    members: int
    messages: int
    delivered_fraction: float
    reliability_violations: int
    recoveries: int
    mean_recovery_latency_ms: float
    events_fired: int
    sim_time_ms: float
    trace_digest: Optional[str] = None
    trace_records: Optional[int] = None
    invariant_violations: Optional[int] = None
    oracle_records_checked: Optional[int] = None
    sweep_cells: int = 0  # examined by the idle sweeps; not in summary()
    engines: List[FlatShard] = field(default_factory=list, repr=False)

    def summary(self) -> Dict[str, Any]:
        """JSON-ready summary (the ``scenarios run`` payload shape)."""
        payload: Dict[str, Any] = {
            "scenario": self.spec_name,
            "seed": self.seed,
            "engine": "flat",
            "shards": self.shards,
            "members": self.members,
            "messages": self.messages,
            "delivered_fraction": self.delivered_fraction,
            "reliability_violations": self.reliability_violations,
            "recoveries": self.recoveries,
            "mean_recovery_latency_ms": self.mean_recovery_latency_ms,
            "events_fired": self.events_fired,
            "sim_time_ms": self.sim_time_ms,
        }
        if self.trace_digest is not None:
            payload["trace_digest"] = self.trace_digest
            payload["trace_records"] = self.trace_records
        if self.invariant_violations is not None:
            payload["invariant_violations"] = self.invariant_violations
        return payload


def partition_regions(region_ids: Sequence[RegionId],
                      shards: int) -> List[List[RegionId]]:
    """Round-robin region assignment over sorted ids (deterministic)."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    parts: List[List[RegionId]] = [[] for _ in range(shards)]
    for index, region_id in enumerate(sorted(region_ids)):
        parts[index % shards].append(region_id)
    return [part for part in parts if part]


def _lookahead(spec: ScenarioSpec) -> float:
    """Epoch width: the inter-region latency floor (min 1 ms so zero-
    latency toy specs still make progress)."""
    return max(spec.topology.inter_one_way, 1.0)


def _sorted_messages(messages: List[Message]) -> List[Message]:
    # (arrival, kind, dest, seq, src): a total order independent of
    # which shard produced which message.
    return sorted(messages, key=lambda m: (m[4], m[0], m[1], m[2], m[3]))


def run_flat(
    spec: ScenarioSpec,
    shards: int = 1,
    processes: bool = False,
    digest: bool = True,
    keep_records: bool = False,
    oracle: bool = False,
    max_epochs: int = 1_000_000,
) -> FlatRunResult:
    """Run *spec* on the flat engine and merge the shard results.

    ``shards=1`` is the serial flat run — it uses the *same* epoch
    barrier loop, which is why sharded digests match it exactly.
    ``processes=True`` puts each shard in its own OS process (pipes
    carry the epoch protocol); results are identical, so tests assert
    process-mode digests against in-process ones.
    """
    require_flat_support(spec)
    hierarchy = build_hierarchy(spec.topology)
    parts = partition_regions(sorted(hierarchy.regions), shards)
    if processes and len(parts) > 1:
        return _run_flat_processes(spec, parts, digest=digest, oracle=oracle,
                                   max_epochs=max_epochs)

    engines = [
        FlatShard(spec, owned=part, keep_records=keep_records, digest=digest,
                  hierarchy=hierarchy)
        for part in parts
    ]
    oracles = []
    if oracle:
        from repro.validate.oracle import InvariantOracle

        oracles = [InvariantOracle().attach(engine) for engine in engines]

    region_shard: Dict[RegionId, int] = {}
    for index, part in enumerate(parts):
        for region_id in part:
            region_shard[region_id] = index

    lookahead = _lookahead(spec)
    barrier = 0.0
    pending: List[Message] = []
    for _ in range(max_epochs):
        if not pending and not any(e.sim.pending_events for e in engines):
            break
        barrier += lookahead
        for message in pending:
            engines[region_shard[message[1]]].deliver_inbound(message)
        pending = []
        produced: List[Message] = []
        for engine in engines:
            engine.sim.run(until=barrier)
            produced.extend(engine.drain_outbox())
        pending = _sorted_messages(produced)
    else:  # pragma: no cover - runaway guard
        raise RuntimeError(f"flat run did not settle within {max_epochs} epochs")

    for orc in oracles:
        orc.finish()
    return _merge_results(
        spec, engines=engines,
        shard_stats=[engine.stats() for engine in engines],
        digest_states=[engine.digest.state for engine in engines]
        if digest else None,
        oracle_stats=[(o.violation_count, o.records_checked) for o in oracles]
        if oracle else None,
        shard_count=len(parts),
    )


def _merge_results(
    spec: ScenarioSpec,
    engines: List[FlatShard],
    shard_stats: List[Dict[str, Any]],
    digest_states: Optional[List[Tuple[int, int]]],
    oracle_stats: Optional[List[Tuple[int, int]]],
    shard_count: int,
) -> FlatRunResult:
    delivered = sum(stats["delivered_pairs"] for stats in shard_stats)
    total = sum(stats["total_pairs"] for stats in shard_stats)
    recoveries = sum(stats["recoveries"] for stats in shard_stats)
    latency_sum = sum(stats["recovery_latency_sum_ms"] for stats in shard_stats)
    digest_hex = None
    digest_count = None
    if digest_states is not None:
        merged = CommutativeTraceDigest()
        for acc, count in digest_states:
            merged.merge(acc, count)
        digest_hex = merged.hexdigest()
        digest_count = merged.count
    violations = None
    checked = None
    if oracle_stats is not None:
        violations = sum(item[0] for item in oracle_stats)
        checked = sum(item[1] for item in oracle_stats)
    return FlatRunResult(
        spec_name=spec.name,
        seed=spec.seed,
        shards=shard_count,
        members=total // max(spec.traffic.count, 1),
        messages=spec.traffic.count,
        delivered_fraction=delivered / total if total else 1.0,
        reliability_violations=sum(
            stats["reliability_violations"] for stats in shard_stats
        ),
        recoveries=recoveries,
        mean_recovery_latency_ms=latency_sum / recoveries if recoveries else 0.0,
        events_fired=sum(stats["events_fired"] for stats in shard_stats),
        sim_time_ms=max(stats["sim_time_ms"] for stats in shard_stats),
        trace_digest=digest_hex,
        trace_records=digest_count,
        invariant_violations=violations,
        oracle_records_checked=checked,
        sweep_cells=sum(stats["sweep_cells"] for stats in shard_stats),
        engines=engines,
    )


# ----------------------------------------------------------------------
# Process-per-shard mode
# ----------------------------------------------------------------------
def _shard_worker(conn, spec_json: str, owned: List[RegionId],
                  digest: bool, oracle: bool) -> None:
    """One shard in its own process: epoch protocol over a pipe."""
    spec = ScenarioSpec.from_json(spec_json)
    engine = FlatShard(spec, owned=owned, digest=digest)
    orc = None
    if oracle:
        from repro.validate.oracle import InvariantOracle

        orc = InvariantOracle().attach(engine)
    while True:
        command = conn.recv()
        if command[0] == "epoch":
            _, barrier, inbound = command
            for message in inbound:
                engine.deliver_inbound(message)
            engine.sim.run(until=barrier)
            conn.send((engine.sim.pending_events, engine.drain_outbox()))
        elif command[0] == "finish":
            if orc is not None:
                orc.finish()
            conn.send({
                "stats": engine.stats(),
                "digest": engine.digest.state if engine.digest else None,
                "oracle": (orc.violation_count, orc.records_checked)
                if orc else None,
            })
            conn.close()
            return


def _run_flat_processes(spec: ScenarioSpec, parts: List[List[RegionId]],
                        digest: bool, oracle: bool,
                        max_epochs: int) -> FlatRunResult:
    spec_json = spec.to_json()
    pipes = []
    workers = []
    try:
        for part in parts:
            parent_conn, child_conn = Pipe()
            worker = Process(
                target=_shard_worker,
                args=(child_conn, spec_json, part, digest, oracle),
                daemon=True,
            )
            worker.start()
            child_conn.close()
            pipes.append(parent_conn)
            workers.append(worker)

        region_shard: Dict[RegionId, int] = {}
        for index, part in enumerate(parts):
            for region_id in part:
                region_shard[region_id] = index

        lookahead = _lookahead(spec)
        barrier = 0.0
        pending: List[Message] = []
        busy = [True] * len(parts)
        for _ in range(max_epochs):
            if not pending and not any(busy):
                break
            barrier += lookahead
            inboxes: List[List[Message]] = [[] for _ in parts]
            for message in pending:
                inboxes[region_shard[message[1]]].append(message)
            for conn, inbox in zip(pipes, inboxes):
                conn.send(("epoch", barrier, inbox))
            produced: List[Message] = []
            for index, conn in enumerate(pipes):
                queue_size, outbox = conn.recv()
                busy[index] = queue_size > 0
                produced.extend(outbox)
            pending = _sorted_messages(produced)
        else:  # pragma: no cover - runaway guard
            raise RuntimeError(
                f"flat run did not settle within {max_epochs} epochs"
            )

        finals = []
        for conn in pipes:
            conn.send(("finish",))
            finals.append(conn.recv())
    finally:
        for conn in pipes:
            conn.close()
        for worker in workers:
            worker.join(timeout=30)
            if worker.is_alive():  # pragma: no cover - hang guard
                worker.terminate()

    return _merge_results(
        spec,
        engines=[],
        shard_stats=[final["stats"] for final in finals],
        digest_states=[final["digest"] for final in finals] if digest else None,
        oracle_stats=[final["oracle"] for final in finals] if oracle else None,
        shard_count=len(parts),
    )


__all__ = [
    "XEPS",
    "CommutativeTraceDigest",
    "FlatMemberView",
    "FlatRunResult",
    "FlatShard",
    "partition_regions",
    "require_flat_support",
    "run_flat",
]
