"""Isolated micro-loops: one public function per layer, called in a loop.

These are the ledger's **M** metrics.  They do not depend on the
workload, so every traced run reports the same set; a layer change
shows here undiluted by the rest of the stack.  Each loop returns a
median over :data:`REPEATS` short batches.

The two engine loops are the workloads of ``benchmarks/bench_engine.py``
written out again here, not imported: that file is outside the ledger's
directory, so a change could edit it and move these numbers without
touching the benchmark, it pulls pytest in through ``benchmarks.conftest``,
and the ROADMAP's deletion pass may remove it.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Any, Callable, Dict

REPEATS = 5


def _rate(batch: Callable[[], int]) -> float:
    """Median operations per second over REPEATS calls of *batch*,
    which does its work and returns how many operations that was."""
    rates = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        operations = batch()
        rates.append(operations / (time.perf_counter() - started))
    return statistics.median(rates)


def _microseconds(batch: Callable[[], int]) -> float:
    return 1e6 / _rate(batch)


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def raw_loop_events_per_s(events: int) -> float:
    """Pop/fire/push only: 64 self-rescheduling chains."""
    from repro.sim.engine import Simulator

    def batch() -> int:
        sim = Simulator()
        budget = [events]

        def chain() -> None:
            budget[0] -= 1
            if budget[0] > 0:
                sim.after(0.001, chain)

        for _ in range(64):
            sim.after(0.001, chain)
        sim.run(max_events=events)
        return sim.events_fired

    return _rate(batch)


def timer_churn_ops_per_s(timers: int, rounds: int) -> float:
    """The idle-threshold pattern: every timer pushed back every 5 ms."""
    from repro.sim.engine import Simulator
    from repro.sim.timers import Timer

    def batch() -> int:
        sim = Simulator()
        population = [Timer(sim, lambda: None) for _ in range(timers)]

        def refresher(round_no: int) -> None:
            for timer in population:
                timer.start(40.0)
            if round_no < rounds:
                sim.after(5.0, refresher, round_no + 1)

        refresher(1)
        sim.run()
        return timers * rounds

    return _rate(batch)


def _engine_loops(scale: float) -> Dict[str, float]:
    return {
        "sim.raw_loop_events_per_s": raw_loop_events_per_s(max(2_000, int(40_000 * scale))),
        "sim.timer_churn_ops_per_s": timer_churn_ops_per_s(max(50, int(500 * scale)), 30),
    }


# ----------------------------------------------------------------------
# sim.tracing
# ----------------------------------------------------------------------
def _tracing_loops(scale: float) -> Dict[str, float]:
    from repro.sim.tracing import TraceLog, trace_digest

    records = max(500, int(20_000 * scale))

    def emit() -> int:
        log = TraceLog(keep_records=True)  # retained, zero subscribers
        for index in range(records):
            log.emit(float(index), "member_received", node=index, seq=index, via="multicast")
        return records

    log = TraceLog(keep_records=True)
    for index in range(records):
        log.emit(float(index), "member_received", node=index, seq=index, via="multicast")

    def digest() -> int:
        trace_digest(log.records)
        return records

    return {
        "sim.trace_emit_records_per_s": _rate(emit),
        "sim.digest_records_per_s": _rate(digest),
    }


# ----------------------------------------------------------------------
# core, scenario
# ----------------------------------------------------------------------
def _buffer_loop(scale: float) -> Dict[str, float]:
    from repro.core.buffer import DISCARD_IDLE, MessageBuffer
    from repro.protocol.messages import DataMessage

    count = max(200, int(5_000 * scale))
    messages = [DataMessage(seq=seq, sender=0) for seq in range(1, count + 1)]

    def batch() -> int:
        buffer = MessageBuffer()
        for data in messages:
            buffer.add(data, 0.0)
        for data in messages[::6]:
            buffer.promote(data.seq)
        for data in messages:
            buffer.discard(data.seq, 40.0, DISCARD_IDLE)
        return 2 * len(messages) + len(messages[::6])

    return {"core.buffer_ops_per_s": _rate(batch)}


def _spec_digest_loop(scale: float) -> Dict[str, float]:
    from repro.scenario.library import scale_spec

    spec = scale_spec()
    calls = max(20, int(300 * scale))

    def batch() -> int:
        for _ in range(calls):
            spec.digest()
        return calls

    return {"scenario.spec_digest_us": _microseconds(batch)}


# ----------------------------------------------------------------------
# scale
# ----------------------------------------------------------------------
def _flat_short_stream(scale: float) -> Dict[str, float]:
    """Cost per member-delivery of a 10-message flat run; against the
    flat workload's longer stream it shows how cost grows with length."""
    from repro.scale.engine import run_flat
    from repro.scenario.library import scale_spec

    regions, members = (100, 1000) if scale >= 1 else (4, 50)
    spec = scale_spec(regions=regions, members_per_region=members, messages=10)
    started = time.perf_counter()
    result = run_flat(spec, digest=False)
    wall = time.perf_counter() - started
    deliveries = result.delivered_fraction * result.members * result.messages
    return {"scale.us_per_member_delivery_10": wall * 1e6 / deliveries}


# ----------------------------------------------------------------------
# live
# ----------------------------------------------------------------------
def _codec_messages() -> Dict[str, Any]:
    from repro.protocol.messages import (
        REPAIR_LOCAL,
        DataMessage,
        LocalRequest,
        RemoteRequest,
        Repair,
        SessionMessage,
    )

    data = DataMessage(seq=17, sender=0)
    return {
        "data": data,
        "local_request": LocalRequest(seq=17, requester=5),
        "remote_request": RemoteRequest(seq=17, requester=5),
        "repair": Repair(data=data, responder=3, scope=REPAIR_LOCAL),
        "session": SessionMessage(sender=0, max_seq=17),
    }


def _codec_loops(scale: float) -> Dict[str, float]:
    from repro.live.codec import decode_frame, encode_frame

    calls = max(50, int(2_000 * scale))
    metrics: Dict[str, float] = {}
    for label, message in _codec_messages().items():
        frame = encode_frame(1, 2, message, send_time=12.5, group="group")

        def encode(message: Any = message) -> int:
            for _ in range(calls):
                encode_frame(1, 2, message, send_time=12.5, group="group")
            return calls

        def decode(frame: bytes = frame) -> int:
            for _ in range(calls):
                decode_frame(frame)
            return calls

        metrics[f"live.encode_us.{label}"] = _microseconds(encode)
        metrics[f"live.decode_us.{label}"] = _microseconds(decode)
        if label == "data":
            metrics["live.frame_bytes_data"] = float(len(frame))
    return metrics


class _Echo:
    """Endpoint that answers every packet until its budget is spent."""

    def __init__(self, transport: Any, node: int, peer: int, budget: list,
                 done: "asyncio.Future[None]") -> None:
        self.transport, self.node, self.peer = transport, node, peer
        self.budget, self.done = budget, done

    def on_packet(self, packet: Any) -> None:
        self.budget[0] -= 1
        if self.budget[0] <= 0:
            if not self.done.done():
                self.done.set_result(None)
            return
        self.transport.unicast(self.node, self.peer, packet.payload)


async def _loopback(datagrams: int) -> float:
    """Closed loop over 127.0.0.1: two endpoints on one socket bounce a
    data message, one in flight per endpoint, zero modelled latency."""
    from repro.live.clock import LiveClock
    from repro.live.transport import LiveTransport
    from repro.net.latency import ConstantLatency

    transport = LiveTransport(LiveClock(), ConstantLatency(0.0))
    await transport.open()
    try:
        done: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        budget = [datagrams]
        transport.register(1, _Echo(transport, 1, 2, budget, done))
        transport.register(2, _Echo(transport, 2, 1, budget, done))
        message = _codec_messages()["data"]
        started = time.perf_counter()
        transport.unicast(1, 2, message)
        transport.unicast(2, 1, message)
        await asyncio.wait_for(done, timeout=30.0)
        return datagrams / (time.perf_counter() - started)
    finally:
        transport.close()


def _loopback_loop(scale: float) -> Dict[str, float]:
    datagrams = max(200, int(4_000 * scale))
    rates = [asyncio.run(_loopback(datagrams)) for _ in range(3)]
    return {"live.loopback_datagrams_per_s": statistics.median(rates)}


def run_all(scale: float = 1.0) -> Dict[str, float]:
    """Every micro-loop; *scale* < 1 shrinks the batches (smoke runs)."""
    metrics: Dict[str, float] = {}
    for loop in (_engine_loops, _tracing_loops, _buffer_loop, _spec_digest_loop,
                 _flat_short_stream, _codec_loops, _loopback_loop):
        metrics.update(loop(scale))
    return metrics
