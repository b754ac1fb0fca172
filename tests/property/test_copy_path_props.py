"""The flattened reads of a buffered copy's life answer what the layered
ones did.

A copy's life (receipt, idle clock, §3.2 coin, discard) reads a few
things per copy that used to cost a chain of calls each; those reads are
now one frame or none, and each must still follow every change:

* ``RrmpMember.region_size`` reads ``node_region``/``regions`` itself,
  so after any joins, leaves, raw ``add_member``/``remove_member``,
  ``set_parent`` and mobility moves (a leave, then a join elsewhere) it
  must equal ``hierarchy.region_of(node).size``, and raise
  :class:`~repro.net.topology.TopologyError` for an unplaced node as
  ``region_of`` does;
* ``HierarchicalLatency.delays`` reads each destination's region off the
  node → region map, so it must equal ``one_way`` per destination, and
  raise ``TopologyError`` when one is unplaced;
* ``_fire_timers`` runs a due timer's callback itself and sends only a
  pushed-back one to ``Timer._fire``, so timers armed by ``started`` or
  by ``Timer.start``, pushed back, re-armed and cancelled, sharing batches
  with each other and with plain events, must fire where
  ``ReferenceTimer`` (one event per arm) fires them;
* ``TwoPhaseBufferPolicy`` reads its host and ``buffer.by_seq``
  directly, so a copy discarded and buffered again must live its own
  life: every discard lands at the instant, with the reason, that an
  independent model of per-copy deadlines gives.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.buffer import DISCARD_HANDOFF, DISCARD_IDLE, DISCARD_TTL
from repro.core.manager import TwoPhaseBufferPolicy
from repro.net.latency import HierarchicalLatency
from repro.net.topology import TopologyError, star
from repro.protocol.messages import DataMessage
from repro.protocol.rrmp import RrmpSimulation
from repro.sim.engine import Simulator
from repro.sim.timers import Timer, started
from repro.sim.tracing import TraceLog
from tests.conftest import FakeBufferHost
from tests.sim.test_event_order import ListSimulator, ReferenceTimer

REGIONS = 4

membership_ops = st.lists(st.one_of(
    st.tuples(st.just("join"), st.integers(0, REGIONS - 1)),
    st.tuples(st.just("leave"), st.integers(0, 63)),
    st.tuples(st.just("move"), st.integers(0, 63), st.integers(0, REGIONS - 1)),
    st.tuples(st.just("raw_add"), st.integers(0, REGIONS - 1)),
    st.tuples(st.just("raw_remove"), st.integers(0, 63)),
    st.tuples(st.just("set_parent"), st.integers(1, REGIONS - 1), st.integers(0, REGIONS - 1)),
), max_size=16)


def _apply(simulation: RrmpSimulation, op: Tuple) -> None:
    hierarchy = simulation.hierarchy
    placed = hierarchy.nodes
    kind = op[0]
    if kind == "join":
        simulation.add_member(op[1])
    elif kind in ("leave", "move") and placed:
        member = simulation.members.get(placed[op[1] % len(placed)])
        if member is None:
            return
        member.leave()
        if kind == "move":
            simulation.add_member(op[2])
    elif kind == "raw_add":
        hierarchy.add_member(op[1])
    elif kind == "raw_remove" and placed:
        hierarchy.remove_member(placed[op[1] % len(placed)])
    elif kind == "set_parent":
        region, parent = op[1], op[2]
        if region not in hierarchy.ancestry(parent):
            hierarchy.set_parent(region, parent)


def _region_size_or_error(read) -> object:
    try:
        return read()
    except TopologyError:
        return TopologyError


@given(ops=membership_ops)
@example(ops=[("move", 3, 2), ("raw_add", 2), ("leave", 0)])
def test_region_size_follows_every_membership_change(ops):
    simulation = RrmpSimulation(star(3, [2, 2, 1]))
    hierarchy = simulation.hierarchy
    for op in [None, *ops]:
        if op is not None:
            _apply(simulation, op)
        for node, member in simulation.members.items():
            expected = _region_size_or_error(lambda: hierarchy.region_of(node).size)
            assert _region_size_or_error(member.region_size) == expected
            assert (expected is TopologyError) == (not hierarchy.contains(node))


@given(ops=membership_ops, src=st.integers(0, 63), picks=st.lists(st.integers(0, 63), max_size=12),
       up=st.sampled_from([None, 7.0]), down=st.sampled_from([None, 11.0]))
def test_fan_out_delays_equal_one_way_per_destination(ops, src, picks, up, down):
    simulation = RrmpSimulation(star(3, [2, 2, 1]))
    hierarchy = simulation.hierarchy
    for op in ops:
        _apply(simulation, op)
    latency = HierarchicalLatency(hierarchy, intra_one_way=5.0, inter_one_way=40.0,
                                  inter_up_one_way=up, inter_down_one_way=down)
    # Ids up to the highest ever used, so departed (unplaced) ones occur too.
    known = range(max([*simulation.members, *hierarchy.nodes]) + 2)
    src = known[src % len(known)]
    dsts = [known[pick % len(known)] for pick in picks]
    if all(hierarchy.contains(node) for node in [src, *dsts]) or not dsts:
        expected = [latency.one_way(src, dst) for dst in dsts]
        assert latency.delays(src, dsts) == expected
        return
    with pytest.raises(TopologyError):
        [latency.one_way(src, dst) for dst in dsts]
    with pytest.raises(TopologyError):
        latency.delays(src, dsts)


# ----------------------------------------------------------------------
# Timers fired inline from a shared batch
# ----------------------------------------------------------------------
TIMERS = 4
DELAYS = (0.0, 0.5, 1.0, 1.5)

timer_actions = st.one_of(
    st.tuples(st.just("start"), st.integers(0, TIMERS - 1), st.sampled_from(DELAYS)),
    st.tuples(st.just("build"), st.integers(0, TIMERS - 1), st.sampled_from(DELAYS)),
    st.tuples(st.just("cancel"), st.integers(0, TIMERS - 1)),
    st.tuples(st.just("at"), st.sampled_from(DELAYS)),
)
timer_programs = st.fixed_dictionaries({
    "initial": st.lists(timer_actions, min_size=1, max_size=8),
    # The i-th firing performs scripts[i]; later ones do nothing.
    "scripts": st.lists(st.lists(timer_actions, max_size=3), max_size=24),
})


class TimerProgram:
    """Runs one program on a simulator with its timer class.  ``build``
    arms a fresh timer in its slot: through
    :func:`~repro.sim.timers.started` on the simulator, constructed then
    started on the reference (the slot's old timer is cancelled first)."""

    def __init__(self, sim, program) -> None:
        self.sim, self.scripts, self.log = sim, program["scripts"], []
        self.reference = isinstance(sim, ListSimulator)
        self.timers = [self._timer(index) for index in range(TIMERS)]
        self.plain = 0
        self.perform(program["initial"])

    def _timer(self, index: int, delay: Optional[float] = None):
        ident = ("timer", index)
        if self.reference:
            timer = ReferenceTimer(self.sim, self.fire, ident)
            if delay is not None:
                timer.start(delay)
            return timer
        if delay is None:
            return Timer(self.sim, self.fire, ident)
        return started(self.sim, delay, self.fire, ident)

    def perform(self, actions) -> None:
        sim = self.sim
        for action in actions:
            kind = action[0]
            if kind == "start":
                self.timers[action[1]].start(action[2])
            elif kind == "build":
                self.timers[action[1]].cancel()
                self.timers[action[1]] = self._timer(action[1], action[2])
            elif kind == "cancel":
                self.timers[action[1]].cancel()
            else:
                self.plain += 1
                sim.at(sim.now + action[1], self.fire, ("at", self.plain))

    def fire(self, ident) -> None:
        self.log.append((ident, self.sim.now))
        if len(self.log) <= len(self.scripts):
            self.perform(self.scripts[len(self.log) - 1])


def _example(*script):
    return {"initial": [("build", 0, 1.0), ("at", 0.5)], "scripts": [list(script)]}


@given(timer_programs)
# Pushed back at 0.5 to 1.5, then an event queued for 1.5: the catch-up
# fires under the seq the push-back reserved, before that event.
@example(_example(("start", 0, 1.0), ("at", 1.0)))
# Two constructor-armed timers share the 1.0 batch with a pushed-back one.
@example(_example(("start", 0, 1.0), ("build", 1, 0.5), ("build", 2, 0.5), ("at", 1.0)))
def test_timers_fire_where_one_event_per_arm_fires_them(program):
    batched = TimerProgram(Simulator(), program)
    batched.sim.run()
    reference = TimerProgram(ListSimulator(), program)
    reference.sim.run()
    assert batched.log == reference.log
    assert batched.sim.now == reference.sim.now


# ----------------------------------------------------------------------
# A copy buffered again lives its own life
# ----------------------------------------------------------------------
T = 40.0
copy_ops = st.lists(st.tuples(
    st.sampled_from(["receive", "request", "serve", "handoff", "drain"]),
    st.integers(1, 3),
    st.integers(0, 12).map(lambda k: 5.0 * k),  # ms elapsed before the op
), max_size=24)


class CopyModel:
    """seq -> [receive time, long-term flag, due] under a sure coin
    (region size 2, C = 0 or 2: P = 0 or 1); discards as log rows."""

    def __init__(self, keep: bool, ttl: Optional[float]) -> None:
        self.keep, self.ttl = keep, ttl
        self.copies: Dict[int, list] = {}
        self.discards: List[Tuple[int, float, float, str, bool]] = []

    def _ttl_due(self, now: float) -> Optional[float]:
        return None if self.ttl is None else now + self.ttl

    def advance(self, until: float) -> None:
        while True:
            due = [(copy[2], seq) for seq, copy in self.copies.items()
                   if copy[2] is not None and copy[2] <= until]
            if not due:
                return
            when, seq = min(due)
            received, long_term, _ = self.copies[seq]
            if not long_term and self.keep:
                self.copies[seq] = [received, True, self._ttl_due(when)]
                continue
            del self.copies[seq]
            self.discards.append((seq, received, when, DISCARD_TTL if long_term else DISCARD_IDLE,
                                  long_term))

    def apply(self, op: str, seq: int, now: float) -> None:
        copy = self.copies.get(seq)
        if op == "receive" and copy is None:
            self.copies[seq] = [now, False, now + T]
        elif op == "request" and copy is not None:
            copy[2] = self._ttl_due(now) if copy[1] else now + T
        elif op == "serve" and copy is not None and copy[1]:
            copy[2] = self._ttl_due(now)
        elif op == "handoff":
            if copy is None:
                self.copies[seq] = [now, True, self._ttl_due(now)]
            else:
                copy[1:] = [True, self._ttl_due(now)]
        elif op == "drain":
            for seq in [seq for seq, copy in self.copies.items() if copy[1]]:
                received = self.copies.pop(seq)[0]
                self.discards.append((seq, received, now, DISCARD_HANDOFF, True))


@given(ops=copy_ops, keep=st.booleans(), ttl=st.sampled_from([None, 25.0, 100.0]))
# Handed in (TTL due 100), drained at 10, handed in again at 20: the
# first copy's clock must not end the second copy at 100.
@example(ops=[("handoff", 1, 0.0), ("drain", 1, 10.0), ("handoff", 1, 10.0)],
         keep=False, ttl=100.0)
def test_a_copy_buffered_again_lives_its_own_life(ops, keep, ttl):
    sim = Simulator()
    host = FakeBufferHost(sim, TraceLog(), region_size=2)
    policy = TwoPhaseBufferPolicy(idle_threshold=T, long_term_c=2.0 if keep else 0.0,
                                  long_term_ttl=ttl)
    policy.bind(host)
    model = CopyModel(keep, ttl)
    for op, seq, elapsed in ops:
        now = sim.now + elapsed
        sim.run(until=now)
        model.advance(now)
        if op == "receive":
            policy.on_receive(DataMessage(seq=seq, sender=0))
        elif op == "request":
            policy.on_request(seq)
        elif op == "serve":
            policy.on_serve(seq)
        elif op == "handoff":
            policy.accept_handoff(DataMessage(seq=seq, sender=0))
        else:
            policy.drain_for_handoff()
        model.apply(op, seq, now)
    end = sim.now + 1_000.0
    sim.run(until=end)
    model.advance(end)
    assert sorted(policy.buffer.records) == sorted(model.discards)
    assert {seq: entry.long_term for seq, entry in policy.buffer.by_seq.items()} == {
        seq: copy[1] for seq, copy in model.copies.items()}
