"""Span tracing installed from outside the program.

The ledger's ``--trace`` pass wraps the public cross-layer calls of
``repro`` (never editing ``src/``) so every call becomes a span with a
name, start, end and parent.  A layer's *self time* is its spans'
duration minus the part their child spans cover.  A layer is a
``repro`` sub-package; ``sim.tracing`` is kept apart from ``sim``
because trace emission is the cost ``audit_registry`` exists to show.

Spans are held in memory as per-(name, parent-layer) aggregates (count,
total ns, self ns) plus the first :data:`RAW_LIMIT` raw spans; the
ledger writes both out when the workload ends.  The untraced pass never
imports this module's wrappers into the program: :func:`installed` is
the only way they get there, and it removes them on exit.

The wrappers cost about a microsecond per span, charged partly to the
span itself and partly to its parent's self time; the ledger reports
the total as ``trace.overhead_frac`` rather than correcting for it.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Raw spans kept per tracer (the rest only feed the aggregates).
RAW_LIMIT = 10_000

#: Layer given to time inside the benchmark's own root span.
ROOT_LAYER = "bench"

_now = time.perf_counter_ns


class Tracer:
    """In-memory span store: aggregates plus the first raw spans."""

    def __init__(self) -> None:
        #: (span name, parent layer) -> [count, total ns, self ns]
        self.aggregates: Dict[Tuple[str, str], List[int]] = {}
        #: (name, start ns, end ns, parent index or -1), in start order.
        self.raw: List[Optional[Tuple[str, int, int, int]]] = []
        #: Fields of every ``recovery_completed`` record seen by the
        #: ``TraceLog.emit`` wrapper; the only way to read recovery
        #: latencies out of a run whose trace log keeps nothing.
        self.recoveries: List[Dict[str, Any]] = []
        self._stack: List[List[Any]] = []  # open spans: [layer, child ns, raw index]

    def call(self, name: str, layer: str, fn: Callable[..., Any], /,
             *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` as one span."""
        stack = self._stack
        parent = stack[-1] if stack else None
        raw = self.raw
        index = len(raw)
        if index < RAW_LIMIT:
            raw.append(None)  # reserve the slot so raw stays in start order
        else:
            index = -1
        frame = [layer, 0, index]
        stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            duration = end - start
            if parent is None:
                parent_layer, parent_index = "", -1
            else:
                parent[1] += duration
                parent_layer, parent_index = parent[0], parent[2]
            entry = self.aggregates.get((name, parent_layer))
            if entry is None:
                self.aggregates[(name, parent_layer)] = [1, duration, duration - frame[1]]
            else:
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
            if index >= 0:
                raw[index] = (name, start, end, parent_index)

    # ------------------------------------------------------------------
    # Reading the aggregates
    # ------------------------------------------------------------------
    def count(self, *prefixes: str) -> int:
        """Spans whose name starts with any of *prefixes*."""
        return sum(entry[0] for (name, _), entry in self.aggregates.items()
                   if name.startswith(prefixes))

    def total_s(self, *prefixes: str) -> float:
        """Inclusive seconds of spans whose name starts with a prefix."""
        return sum(entry[1] for (name, _), entry in self.aggregates.items()
                   if name.startswith(prefixes)) / 1e9

    def self_s(self, *prefixes: str) -> float:
        """Self seconds of spans whose name starts with a prefix."""
        return sum(entry[2] for (name, _), entry in self.aggregates.items()
                   if name.startswith(prefixes)) / 1e9

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (the part of a name before ``:``)."""
        layers: Dict[str, float] = {}
        for (name, _), entry in self.aggregates.items():
            layer = name.partition(":")[0]
            layers[layer] = layers.get(layer, 0.0) + entry[2] / 1e9
        return layers

    def to_dict(self) -> Dict[str, Any]:
        """JSON form written to ``results/trace_<workload>.json``."""
        return {
            "aggregates": [
                {"name": name, "parent_layer": parent, "count": entry[0],
                 "total_ns": entry[1], "self_ns": entry[2]}
                for (name, parent), entry in sorted(self.aggregates.items())
            ],
            "raw_spans": [
                {"name": span[0], "start_ns": span[1], "end_ns": span[2],
                 "parent": span[3]}
                for span in self.raw if span is not None
            ],
        }


# ----------------------------------------------------------------------
# Layer attribution
# ----------------------------------------------------------------------
def layer_of(module: str) -> str:
    """The layer owning *module*: second component of ``repro.x.y``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return ROOT_LAYER
    if parts[1:3] == ["sim", "tracing"]:
        return "sim.tracing"
    return parts[1]


class _CallbackNames:
    """Span names for scheduled callbacks, cached per function.

    A ``Timer`` or ``PeriodicTask`` is attributed to the callback it
    fires, not to ``sim``: the time belongs to whoever armed the timer.
    """

    def __init__(self) -> None:
        from repro.sim.timers import PeriodicTask, Timer

        self._indirect = {Timer._fire: "_callback", PeriodicTask._tick: "_callback"}
        self._names: Dict[Any, Tuple[str, str]] = {}

    def resolve(self, callback: Callable[..., Any]) -> Tuple[str, str]:
        function = getattr(callback, "__func__", callback)
        target_attr = self._indirect.get(function)
        if target_attr is not None:
            return self.resolve(getattr(callback.__self__, target_attr))
        # Keyed by code object: a lambda or closure is a new function
        # object every time its ``def`` runs, but always the same code.
        key = getattr(function, "__code__", function)
        resolved = self._names.get(key)
        if resolved is None:
            layer = layer_of(getattr(function, "__module__", None) or "")
            qualname = getattr(function, "__qualname__", type(function).__name__)
            resolved = self._names[key] = (f"{layer}:event:{qualname}", layer)
        return resolved


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _subclasses(cls: type) -> List[type]:
    found, queue = [], [cls]
    while queue:
        for sub in queue.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                queue.append(sub)
    return found


class _Patches:
    """Applied attribute replacements, undone in reverse order."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def span(self, owner: Any, attr: str, layer: Optional[str] = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording one span per call."""
        original = owner.__dict__[attr]
        layer = layer or layer_of(original.__module__)
        name = f"{layer}:{original.__qualname__}"
        call = self.tracer.call

        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(name, layer, original, *args, **kwargs)

        self.set(owner, attr, traced)

    def function(self, module: Any, attr: str) -> None:
        """Span a module-level function everywhere it was imported by name."""
        original = getattr(module, attr)
        self.span(module, attr)
        traced = getattr(module, attr)
        for other in list(sys.modules.values()):
            if (other is not module and getattr(other, "__name__", "").startswith("repro")
                    and other.__dict__.get(attr) is original):
                self.set(other, attr, traced)

    def scheduler(self, clock: type, attr: str, callback_at: int,
                  names: _CallbackNames) -> None:
        """Wrap the callback handed to ``clock.attr`` (positional index
        *callback_at*, counting ``self``) so its firing is a span."""
        original = clock.__dict__[attr]
        call = self.tracer.call

        def schedule(*args: Any) -> Any:
            name, layer = names.resolve(args[callback_at])
            return original(*args[:callback_at], call, name, layer, *args[callback_at:])

        self.set(clock, attr, schedule)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the program's cross-layer calls for the ``with`` body."""
    from asyncio.base_events import BaseEventLoop

    import repro.core.manager  # noqa: F401 - subclasses must exist to be found
    import repro.hashing.deterministic  # noqa: F401
    import repro.stability.detector  # noqa: F401
    import repro.workloads.mobility  # noqa: F401
    from repro.cc.driver import CongestionDriver
    from repro.core.policies import BufferPolicy
    from repro.live import codec as live_codec
    from repro.live.clock import LiveClock
    from repro.live.transport import LiveTransport
    from repro.net.loss import LossModel, NoLoss
    from repro.net.transport import Network
    from repro.protocol.member import RrmpMember
    from repro.runner.runner import Runner
    from repro.scale import engine as scale_engine
    from repro.scale.pool import FlatMemberPool
    from repro.scenario import materialize
    from repro.sim import tracing
    from repro.sim.engine import Simulator
    from repro.sim.tracing import TraceLog

    patches = _Patches(tracer)
    names = _CallbackNames()
    call = tracer.call
    try:
        for clock in (Simulator, LiveClock):
            patches.scheduler(clock, "at", 2, names)           # (self, time, callback, *args)
            patches.scheduler(clock, "at_reserved", 3, names)  # (self, time, seq, callback, *args)
        patches.span(Simulator, "run")
        patches.span(Simulator, "drain")
        for attr in ("unicast", "multicast"):
            patches.span(Network, attr)
            patches.span(LiveTransport, attr)
        patches.span(LiveTransport, "datagram_received")
        # Private, but it is one turn of the event loop under the live
        # transport: its timer heap, select and handle dispatch are a fifth
        # of the live workload's CPU and belong to no layer of ``repro``.
        patches.span(BaseEventLoop, "_run_once", layer="asyncio")
        if "_on_readable" in LiveTransport.__dict__:
            # Private, but it is the socket drain: the recvfrom calls
            # happen here and would otherwise be nobody's time.
            patches.span(LiveTransport, "_on_readable")
        for model in _subclasses(LossModel):
            # NoLoss returns False and nothing else; a span around it
            # would measure only itself.
            if model is not NoLoss and "is_lost" in model.__dict__:
                patches.span(model, "is_lost")
        patches.span(RrmpMember, "on_packet")
        for policy in _subclasses(BufferPolicy):
            for hook in ("on_receive", "on_request", "on_serve"):
                if hook in policy.__dict__:
                    patches.span(policy, hook)
        for attr in ("start", "stop"):
            patches.span(CongestionDriver, attr)
        patches.span(Runner, "run")
        patches.span(FlatMemberPool, "__init__")
        patches.function(scale_engine, "run_flat")
        patches.function(materialize, "build_scenario")
        patches.function(live_codec, "encode_frame")
        patches.function(live_codec, "decode_frame")
        patches.function(tracing, "trace_digest")

        emit = TraceLog.__dict__["emit"]
        recoveries = tracer.recoveries

        def traced_emit(log: Any, time: float, kind: str, /, **fields: Any) -> None:
            if kind == "recovery_completed":
                recoveries.append(fields)
            call("sim.tracing:TraceLog.emit", "sim.tracing", emit, log, time, kind, **fields)

        patches.set(TraceLog, "emit", traced_emit)

        subscribe = TraceLog.__dict__["subscribe"]

        def traced_subscribe(log: Any, subscriber: Callable[..., None],
                             kind: Optional[str] = None) -> None:
            function = getattr(subscriber, "__func__", subscriber)
            layer = layer_of(getattr(function, "__module__", None) or "")
            name = f"{layer}:subscriber:{getattr(function, '__qualname__', 'callable')}"

            def traced(record: Any) -> None:
                call(name, layer, subscriber, record)

            subscribe(log, traced, kind)

        patches.set(TraceLog, "subscribe", traced_subscribe)
        yield tracer
    finally:
        patches.undo()
