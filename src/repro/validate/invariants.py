"""The protocol invariants the oracle checks.

Each invariant is a small state machine fed by trace records during the
run (``kinds`` names the record kinds it consumes) plus an optional
end-of-run sweep (``at_end``) that cross-checks the trace-derived
ledger against live member state.  Invariants never mutate the
simulation — they only observe and report :class:`Violation` objects.

The six invariants (see README "Validation"):

* **no-duplicate-delivery** — no member ever delivers the same data
  seq twice (``member_received`` is unique per ``(node, seq)``).
* **gapless-delivery** — at quiescence, every gap a member detected is
  filled, or was explicitly reported as a ``reliability_violation``
  (the §5 give-up path).  Skipped for runs stopped mid-flight.
* **buffer-conservation** — every ``buffer_add`` is eventually paired
  with a ``buffer_discard`` carrying a known reason, or the entry is
  still genuinely buffered at the end; nothing is discarded that was
  never added, and nothing is buffered that was never traced.
* **long-term-quota** — the number of concurrent long-term holders of
  one message inside one region stays within a statistical envelope of
  the configured C (the paper's expected copy count).  The bound is
  ``C + 6·sqrt(max(C, 1)) + 4``: for the binomial coin flips §3.2
  prescribes, exceeding it has probability ~1e-9 per message, so a
  trip means systematic over-promotion, not bad luck.
* **recovery-liveness** — every ``loss_detected`` terminates: a
  ``recovery_completed``, a ``reliability_violation``, or the member
  leaving.  At quiescence no recovery may still be open or active.
* **fec-accounting** — each FEC block is encoded at most once, and its
  ``fec_parity_overhead`` record agrees with the encode record
  (``parity_messages == r``; byte counts match the wire sizes).

Two further invariants guard optional subsystems and stay inert when
those are off: **congestion-quota** (paced-rate window plus aggregate
long-term quota under congestion control) and **adaptive-topology**
(after every ``tree_reparent`` the hierarchy is acyclic, fully
connected, and no region is orphaned).

The workload-family invariants:

* **handoff-conservation** — every graceful leave balances its §3.2
  ledger: the long-term entries drained for handoff
  (``buffer_discard`` with reason ``handoff``) exactly equal the
  handoffs sent to peers plus the entries orphaned with the last
  member of a region.  Mobility scenarios exercise this hundreds of
  times per run (every region crossing is a leave + re-join).
* **rebuffer-accounting** — the streaming
  :class:`~repro.metrics.rebuffer.RebufferTracker` is cross-checked
  against an independent replay of the delivery trace: per receiver,
  stall events, stall time and frames played must agree exactly.
  Inert unless a playout spec is attached to the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from repro.core.buffer import (
    DISCARD_FIXED,
    DISCARD_HANDOFF,
    DISCARD_IDLE,
    DISCARD_STABLE,
    DISCARD_TTL,
)
from repro.protocol.messages import DATA_WIRE_SIZE, Seq
from repro.sim.tracing import TraceRecord

NodeId = int

#: Discard reasons a ``buffer_discard`` record may carry.  DISCARD_CLOSE
#: never reaches the trace (member shutdown drops buffers silently and
#: the oracle clears its ledger on ``member_left``/``member_crashed``).
KNOWN_DISCARD_REASONS = frozenset(
    {DISCARD_IDLE, DISCARD_TTL, DISCARD_FIXED, DISCARD_STABLE, DISCARD_HANDOFF}
)


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which invariant, when, and the evidence."""

    invariant: str
    time: float
    message: str
    record: Optional[TraceRecord] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (used by the fuzz repro artifacts)."""
        payload: Dict[str, Any] = {
            "invariant": self.invariant,
            "time": self.time,
            "message": self.message,
        }
        if self.record is not None:
            payload["record"] = {
                "time": self.record.time,
                "kind": self.record.kind,
                "fields": dict(self.record.fields),
            }
        return payload


class EndContext:
    """What the end-of-run sweep may inspect.

    ``quiescent`` is true when the event queue fully drained — only
    then do the liveness-style invariants apply (a horizon-bounded run
    legitimately stops with recoveries mid-flight).
    """

    def __init__(self, simulation, quiescent: bool) -> None:
        self.simulation = simulation
        self.quiescent = quiescent

    def alive_members(self):
        return self.simulation.alive_members()


class Invariant:
    """Base class: subscribes to ``kinds``, reports via ``fail``."""

    #: Short identifier used in violations, reports and repro artifacts.
    name: str = "invariant"
    #: Trace kinds routed to :meth:`on_record` (empty = end-check only).
    kinds: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._sink = None

    def bind(self, sink) -> None:
        """Attach the violation sink (the oracle).  Called once."""
        self._sink = sink

    def fail(self, time: float, message: str,
             record: Optional[TraceRecord] = None) -> None:
        """Report one violation of this invariant."""
        self._sink.report(Violation(self.name, time, message, record))

    def on_record(self, record: TraceRecord) -> None:
        """Consume one trace record of a subscribed kind."""

    def at_end(self, ctx: EndContext) -> None:
        """End-of-run sweep over live member state."""


class NoDuplicateDelivery(Invariant):
    """``member_received`` fires at most once per (node, data seq)."""

    name = "no-duplicate-delivery"
    kinds = ("member_received",)

    def __init__(self) -> None:
        super().__init__()
        self._delivered: Set[Tuple[NodeId, Seq]] = set()

    def on_record(self, record: TraceRecord) -> None:
        key = (record["node"], record["seq"])
        if key in self._delivered:
            self.fail(
                record.time,
                f"member {key[0]} delivered seq {key[1]} twice "
                f"(second arrival via {record.get('via')!r})",
                record,
            )
        else:
            self._delivered.add(key)


class GaplessDelivery(Invariant):
    """At quiescence every detected gap is filled or explicitly failed."""

    name = "gapless-delivery"
    kinds = ("reliability_violation",)

    def __init__(self) -> None:
        super().__init__()
        self._given_up: Set[Tuple[NodeId, Seq]] = set()

    def on_record(self, record: TraceRecord) -> None:
        self._given_up.add((record["node"], record["seq"]))

    def at_end(self, ctx: EndContext) -> None:
        if not ctx.quiescent:
            return
        for member in ctx.alive_members():
            for seq in member.unresolved_gaps():
                if (member.node_id, seq) not in self._given_up:
                    self.fail(
                        ctx.simulation.sim.now,
                        f"member {member.node_id} still missing seq {seq} at "
                        "quiescence with no reliability_violation reported",
                    )


class BufferConservation(Invariant):
    """Every buffered message ends delivered-from-buffer or discarded
    with a known reason; trace ledger and live buffers must agree."""

    name = "buffer-conservation"
    kinds = ("buffer_add", "buffer_discard", "member_left", "member_crashed")

    def __init__(self) -> None:
        super().__init__()
        #: (node, seq) -> add time, for entries the trace says are live.
        self._live: Dict[Tuple[NodeId, Seq], float] = {}

    def on_record(self, record: TraceRecord) -> None:
        if record.kind in ("member_left", "member_crashed"):
            # Shutdown discards the member's buffer without trace
            # records (DISCARD_CLOSE); drop its ledger entries.
            node = record["node"]
            for key in [key for key in self._live if key[0] == node]:
                del self._live[key]
            return
        key = (record["node"], record["seq"])
        if record.kind == "buffer_add":
            if key in self._live:
                self.fail(
                    record.time,
                    f"member {key[0]} buffer_add for seq {key[1]} while the "
                    "entry is already live (double add)",
                    record,
                )
            else:
                self._live[key] = record.time
            return
        # buffer_discard
        reason = record.get("reason")
        if reason not in KNOWN_DISCARD_REASONS:
            self.fail(
                record.time,
                f"member {key[0]} discarded seq {key[1]} with unknown "
                f"reason {reason!r}",
                record,
            )
        if self._live.pop(key, None) is None:
            self.fail(
                record.time,
                f"member {key[0]} discarded seq {key[1]} that was never "
                "added (discard without add)",
                record,
            )

    def at_end(self, ctx: EndContext) -> None:
        members = {member.node_id: member for member in ctx.alive_members()}
        for (node, seq), added_at in sorted(self._live.items()):
            member = members.get(node)
            if member is None:
                self.fail(
                    ctx.simulation.sim.now,
                    f"trace says member {node} still buffers seq {seq}, but the "
                    "member is gone and never emitted a shutdown record",
                )
            elif not member.is_buffering(seq):
                self.fail(
                    ctx.simulation.sim.now,
                    f"trace says member {node} still buffers seq {seq} (added "
                    f"at t={added_at:g}), but its buffer disagrees",
                )
        for node, member in sorted(members.items()):
            for seq in member.buffered_seqs():
                if (node, seq) not in self._live:
                    self.fail(
                        ctx.simulation.sim.now,
                        f"member {node} buffers seq {seq} with no live "
                        "buffer_add trace entry",
                    )


def _quota_bound(c: float) -> float:
    """The statistical envelope on one message's long-term holders in one
    region for the configured C (§3.2)."""
    return c + 6.0 * math.sqrt(max(c, 1.0)) + 4.0


def _track_long_term(holders: Dict[Seq, Dict[NodeId, int]], record: TraceRecord,
                     hierarchy) -> Optional[Tuple[Seq, int]]:
    """Fold a ``long_term_selected``, ``buffer_discard`` or departure
    *record* into *holders* (seq -> {node: region at promotion time});
    ``(seq, region)`` when it adds a long-term holder."""
    node = record["node"]
    if record.kind in ("member_left", "member_crashed"):
        for by_node in holders.values():
            by_node.pop(node, None)
        return None
    seq = record["seq"]
    if record.kind == "buffer_discard":
        if record.get("was_long_term"):
            holders.get(seq, {}).pop(node, None)
        return None
    by_node = holders.setdefault(seq, {})
    if node in by_node:
        return None  # re-promotion (e.g. handoff onto an existing holder)
    by_node[node] = hierarchy.region_id_of(node) if hierarchy.contains(node) else -1
    return seq, by_node[node]


class LongTermQuota(Invariant):
    """Concurrent long-term holders per (region, message) stay within a
    statistical envelope of the configured C."""

    name = "long-term-quota"
    kinds = ("long_term_selected", "buffer_discard", "member_left", "member_crashed")

    def __init__(self) -> None:
        super().__init__()
        #: seq -> {node: region at promotion time}
        self._holders: Dict[Seq, Dict[NodeId, int]] = {}

    def on_record(self, record: TraceRecord) -> None:
        simulation = self._sink.simulation
        promoted = _track_long_term(self._holders, record, simulation.hierarchy)
        if promoted is None:
            return
        seq, region = promoted
        bound = _quota_bound(float(simulation.config.c))
        in_region = sum(1 for other in self._holders[seq].values() if other == region)
        if in_region > bound:
            self.fail(
                record.time,
                f"seq {seq} has {in_region} concurrent long-term holders in "
                f"region {region}, beyond the statistical quota "
                f"{bound:.1f} for C={simulation.config.c:g}",
                record,
            )


class RecoveryLiveness(Invariant):
    """Every detected loss terminates; nothing is left running at
    quiescence."""

    name = "recovery-liveness"
    kinds = (
        "loss_detected",
        "recovery_completed",
        "reliability_violation",
        "member_left",
        "member_crashed",
    )

    def __init__(self) -> None:
        super().__init__()
        self._open: Dict[Tuple[NodeId, Seq], float] = {}

    def on_record(self, record: TraceRecord) -> None:
        if record.kind in ("member_left", "member_crashed"):
            node = record["node"]
            for key in [key for key in self._open if key[0] == node]:
                del self._open[key]
            return
        key = (record["node"], record["seq"])
        if record.kind == "loss_detected":
            if key in self._open:
                self.fail(
                    record.time,
                    f"member {key[0]} detected seq {key[1]} twice without the "
                    "first recovery terminating",
                    record,
                )
            self._open[key] = record.time
            return
        # recovery_completed / reliability_violation
        if self._open.pop(key, None) is None:
            self.fail(
                record.time,
                f"member {key[0]} reported {record.kind} for seq {key[1]} "
                "with no open recovery (terminal event without detection)",
                record,
            )

    def at_end(self, ctx: EndContext) -> None:
        if not ctx.quiescent:
            return
        now = ctx.simulation.sim.now
        for (node, seq), detected_at in sorted(self._open.items()):
            self.fail(
                now,
                f"recovery of seq {seq} at member {node} (detected at "
                f"t={detected_at:g}) never completed, failed, or was "
                "cancelled by shutdown",
            )
        for member in ctx.alive_members():
            for seq in member.active_recovery_seqs():
                self.fail(
                    now,
                    f"member {member.node_id} recovery for seq {seq} is still "
                    "active at quiescence with no pending timer (stalled)",
                )


class FecAccounting(Invariant):
    """Parity overhead records agree with their encode records."""

    name = "fec-accounting"
    kinds = ("fec_encode", "fec_parity_overhead")

    def __init__(self) -> None:
        super().__init__()
        #: block id -> (k, r) from its fec_encode record.
        self._encoded: Dict[int, Tuple[int, int]] = {}
        self._accounted: Set[int] = set()

    def on_record(self, record: TraceRecord) -> None:
        block = record["block"]
        if record.kind == "fec_encode":
            if block in self._encoded:
                self.fail(
                    record.time,
                    f"FEC block {block} encoded twice",
                    record,
                )
            self._encoded[block] = (record["k"], record["r"])
            return
        # fec_parity_overhead
        if block in self._accounted:
            self.fail(
                record.time,
                f"FEC block {block} has two parity-overhead records",
                record,
            )
        self._accounted.add(block)
        encode = self._encoded.get(block)
        if encode is None:
            self.fail(
                record.time,
                f"parity-overhead record for block {block} with no encode",
                record,
            )
            return
        k, r = encode
        parity_messages = record["parity_messages"]
        if parity_messages != r:
            self.fail(
                record.time,
                f"block {block} emitted {parity_messages} parity messages "
                f"but was encoded with r={r}",
                record,
            )
        if record["parity_bytes"] != parity_messages * DATA_WIRE_SIZE:
            self.fail(
                record.time,
                f"block {block} parity_bytes {record['parity_bytes']} != "
                f"{parity_messages} x {DATA_WIRE_SIZE}",
                record,
            )
        if record["data_bytes"] != k * DATA_WIRE_SIZE:
            self.fail(
                record.time,
                f"block {block} data_bytes {record['data_bytes']} != "
                f"{k} x {DATA_WIRE_SIZE}",
                record,
            )


class CongestionQuota(Invariant):
    """With a congestion controller enabled, the sender's paced
    interval stays inside the configured rate window and the
    steady-state long-term occupancy stays within the §3.2 quota.

    The point of admission control is that overload cannot push
    buffering past the paper's statistical envelope: at quiescence each
    region's *aggregate* live long-term count must be at most
    ``C + 6·sqrt(max(C, 1)) + 4`` per message it holds.  Without CC the
    per-promotion check (:class:`LongTermQuota`) still applies; this
    sweep additionally catches slow aggregate creep that individual
    promotions never trip.  The invariant is inert (consumes nothing,
    reports nothing) when the run's congestion controller (given to
    :meth:`~repro.validate.oracle.InvariantOracle.attach`) is ``none``.
    """

    name = "congestion-quota"
    kinds = (
        "cc_send",
        "cc_rate_change",
        "long_term_selected",
        "buffer_discard",
        "member_left",
        "member_crashed",
    )

    def __init__(self) -> None:
        super().__init__()
        #: seq -> {node: region at promotion time} (mirrors LongTermQuota).
        self._holders: Dict[Seq, Dict[NodeId, int]] = {}
        #: ``None`` until the first record, then ``False`` (CC off) or
        #: the ``(min_interval, max_interval)`` ms window.
        self._window = None

    def _rate_window(self):
        if self._window is None:
            congestion = self._sink.congestion
            if not congestion.enabled:
                self._window = False
            else:
                self._window = (
                    1000.0 / congestion.max_rate,
                    1000.0 / congestion.min_rate,
                )
        return self._window

    def on_record(self, record: TraceRecord) -> None:
        window = self._rate_window()
        if window is False:
            return
        if record.kind in ("cc_send", "cc_rate_change"):
            interval = record["interval"]
            low, high = window
            if not (low - 1e-9 <= interval <= high + 1e-9):
                self.fail(
                    record.time,
                    f"controller interval {interval:g} ms escaped the "
                    f"configured [{low:g}, {high:g}] ms rate window",
                    record,
                )
            return
        _track_long_term(self._holders, record, self._sink.simulation.hierarchy)

    def at_end(self, ctx: EndContext) -> None:
        if self._rate_window() is False or not ctx.quiescent:
            return
        c = float(ctx.simulation.config.c)
        bound = _quota_bound(c)
        totals: Dict[int, int] = {}
        messages: Dict[int, Set[Seq]] = {}
        for seq, holders in self._holders.items():
            for region in holders.values():
                totals[region] = totals.get(region, 0) + 1
                messages.setdefault(region, set()).add(seq)
        for region, total in sorted(totals.items()):
            budget = bound * len(messages[region])
            if total > budget:
                self.fail(
                    ctx.simulation.sim.now,
                    f"region {region} holds {total} long-term entries across "
                    f"{len(messages[region])} messages at steady state — "
                    f"beyond the §3.2 aggregate quota {budget:.1f} "
                    f"(bound {bound:.1f}/message for C={c:g}) despite "
                    "congestion control",
                )


class AdaptiveTopology(Invariant):
    """After every re-parent the hierarchy stays acyclic, fully
    connected, and no region is orphaned.

    The adaptive-tree optimizer (:mod:`repro.adapt`) mutates
    ``Region.parent_id`` at run time; this invariant audits each
    ``tree_reparent`` record against the live hierarchy — structural
    validity (:meth:`Hierarchy.validate`), every non-empty region's
    ancestry terminating at a root, and a single shared root for all
    non-empty regions (a split forest would silently partition remote
    recovery).  Inert on static runs: it consumes nothing unless a
    re-parent record appears.
    """

    name = "adaptive-topology"
    kinds = ("tree_reparent",)

    def __init__(self) -> None:
        super().__init__()
        self._reparents = 0

    def _check_topology(self, time: float,
                        record: Optional[TraceRecord] = None) -> None:
        hierarchy = self._sink.simulation.hierarchy
        try:
            hierarchy.validate()
        except Exception as exc:
            self.fail(time, f"hierarchy invalid after re-parent: {exc}", record)
            return
        roots: Set[int] = set()
        for region_id, region in sorted(hierarchy.regions.items()):
            if not region.members:
                continue
            seen = set()
            current = region_id
            while hierarchy.regions[current].parent_id is not None:
                if current in seen:  # validate() already failed above,
                    break            # but stay safe against partial state
                seen.add(current)
                current = hierarchy.regions[current].parent_id
            roots.add(current)
        if len(roots) > 1:
            self.fail(
                time,
                f"hierarchy split into {len(roots)} disconnected trees "
                f"(roots {sorted(roots)}) after re-parent",
                record,
            )

    def on_record(self, record: TraceRecord) -> None:
        self._reparents += 1
        new_parent = record.get("new_parent")
        hierarchy = self._sink.simulation.hierarchy
        if new_parent is not None:
            target = hierarchy.regions.get(new_parent)
            if target is None or not target.members:
                self.fail(
                    record.time,
                    f"region {record.get('region')} re-parented onto "
                    f"{'missing' if target is None else 'empty'} region "
                    f"{new_parent} (orphaned repair path)",
                    record,
                )
        self._check_topology(record.time, record)

    def at_end(self, ctx: EndContext) -> None:
        if self._reparents:
            self._check_topology(ctx.simulation.sim.now)


class HandoffConservation(Invariant):
    """Every graceful leave balances its §3.2 handoff ledger.

    When a member leaves, the long-term entries it drained for handoff
    (``buffer_discard`` records with reason ``handoff``) must exactly
    equal the handoffs it sent to peers (``handoff_sent``) plus the
    entries orphaned because it was the last member of its region
    (``handoff_orphaned``).  The three record groups precede the
    ``member_left`` record within one leave, so the ledger can be
    settled per node as it departs.  Mobility handoffs go through the
    same path, so roaming scenarios check this on every region
    crossing.
    """

    name = "handoff-conservation"
    kinds = ("buffer_discard", "handoff_sent", "handoff_orphaned",
             "member_left", "member_crashed")

    def __init__(self) -> None:
        super().__init__()
        self._drained: Dict[NodeId, int] = {}
        self._sent: Dict[NodeId, int] = {}
        self._orphaned: Dict[NodeId, int] = {}

    def _clear(self, node: NodeId) -> None:
        self._drained.pop(node, None)
        self._sent.pop(node, None)
        self._orphaned.pop(node, None)

    def on_record(self, record: TraceRecord) -> None:
        node = record["node"]
        if record.kind == "buffer_discard":
            if record.get("reason") == DISCARD_HANDOFF:
                self._drained[node] = self._drained.get(node, 0) + 1
            return
        if record.kind == "handoff_sent":
            self._sent[node] = self._sent.get(node, 0) + 1
            return
        if record.kind == "handoff_orphaned":
            self._orphaned[node] = self._orphaned.get(node, 0) + int(record["count"])
            return
        if record.kind == "member_crashed":
            # A crash performs no handoff; stale counters would mean a
            # drain that never reached a leave — flagged at the end.
            return
        # member_left: settle the ledger for this node.
        drained = self._drained.get(node, 0)
        sent = self._sent.get(node, 0)
        orphaned = self._orphaned.get(node, 0)
        if drained != sent + orphaned:
            self.fail(
                record.time,
                f"node {node} left with an unbalanced handoff ledger: "
                f"{drained} long-term entries drained but {sent} handed "
                f"off + {orphaned} orphaned",
                record,
            )
        self._clear(node)

    def at_end(self, ctx: EndContext) -> None:
        for node in sorted(set(self._drained) | set(self._sent) | set(self._orphaned)):
            drained = self._drained.get(node, 0)
            sent = self._sent.get(node, 0)
            orphaned = self._orphaned.get(node, 0)
            self.fail(
                ctx.simulation.sim.now,
                f"node {node} has handoff records ({drained} drained, "
                f"{sent} sent, {orphaned} orphaned) but never completed "
                "a graceful leave",
            )


class RebufferAccounting(Invariant):
    """The streaming rebuffer tracker agrees with a trace replay.

    Keeps an independent per-receiver ledger of ``member_received``
    arrivals and, at the end of the run, replays it through the same
    playout model (:func:`repro.metrics.rebuffer.replay_rebuffer`) the
    attached :class:`~repro.metrics.rebuffer.RebufferTracker` ran
    incrementally — stall events, stall time and frames played must
    agree exactly, receiver for receiver.  Inert unless the run gave
    :meth:`~repro.validate.oracle.InvariantOracle.attach` its tracker.
    """

    name = "rebuffer-accounting"
    kinds = ("member_received",)

    def __init__(self) -> None:
        super().__init__()
        self._arrivals: Dict[NodeId, list] = {}

    def on_record(self, record: TraceRecord) -> None:
        self._arrivals.setdefault(record["node"], []).append(
            (record["seq"], record.time)
        )

    def at_end(self, ctx: EndContext) -> None:
        tracker = self._sink.rebuffer
        if tracker is None:
            return
        from repro.metrics.rebuffer import replay_rebuffer

        now = ctx.simulation.sim.now
        if set(self._arrivals) != set(tracker.clocks):
            missing = sorted(set(self._arrivals) ^ set(tracker.clocks))
            self.fail(
                now,
                f"rebuffer tracker and delivery trace disagree on the "
                f"receiver set (mismatched nodes: {missing[:5]})",
            )
            return
        for node in sorted(self._arrivals):
            replayed = replay_rebuffer(
                self._arrivals[node], tracker.interval, tracker.startup_delay
            )
            clock = tracker.clocks[node]
            expected = (replayed.stall_events, replayed.stall_time,
                        replayed.frames_played, replayed.skipped)
            observed = (clock.stall_events, clock.stall_time,
                        clock.frames_played, clock.skipped)
            if expected != observed:
                self.fail(
                    now,
                    f"node {node} rebuffer accounting diverged from the "
                    f"delivery trace: replay says (events, stall_ms, "
                    f"played, skipped)={expected}, tracker says {observed}",
                )


def default_invariants() -> Sequence[Invariant]:
    """Fresh instances of the full invariant set, in check order."""
    return (
        NoDuplicateDelivery(),
        GaplessDelivery(),
        BufferConservation(),
        LongTermQuota(),
        RecoveryLiveness(),
        FecAccounting(),
        CongestionQuota(),
        AdaptiveTopology(),
        HandoffConservation(),
        RebufferAccounting(),
    )
