"""Tiny trial functions used by the runner's own test suite.

They live in the package (not in test modules) so they pickle by
reference into worker processes under any multiprocessing start method
— exactly the constraint real experiment trials satisfy.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from repro.sim.engine import Simulator, total_events_fired


def trial_square(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """The smallest deterministic trial: arithmetic on (params, seed)."""
    return {"value": int(params["x"]) ** 2 + seed, "seed": seed}


def trial_draw(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """A trial whose result is a pure function of its own seed."""
    rng = random.Random(seed)
    return {"draws": [rng.randrange(int(params["bound"])) for _ in range(5)]}


def trial_engine_exercise(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Exercise a fresh engine: schedule, cancel, run with ``max_events``.

    Returns enough state to prove the executing process handed this
    trial a pristine engine world: a zero clock, an accurate pending
    count, and event accounting that matches this trial alone —
    regardless of what earlier trials ran in the same worker.
    """
    n_events = int(params["events"])
    cancel_stride = int(params["cancel_stride"])
    max_events = params.get("max_events")
    sim = Simulator()
    clean_clock = sim.now == 0.0 and sim.pending_events == 0
    fired = []
    scheduled = [sim.after(float(i + 1), fired.append, i) for i in range(n_events)]
    # Cancel every ``cancel_stride``-th event *after* scheduling, the
    # lazy-cancellation path the EventQueue must tolerate mid-queue.
    cancelled = 0
    for index in range(0, n_events, cancel_stride):
        scheduled[index].cancel()
        cancelled += 1
    live_before = sim.pending_events
    global_before = total_events_fired()
    end = sim.run(max_events=None if max_events is None else int(max_events))
    rng = random.Random(seed)
    return {
        "clean_clock": clean_clock,
        "live_before": live_before,
        "fired": len(fired),
        "cancelled": cancelled,
        "instance_events": sim.events_fired,
        "global_delta": total_events_fired() - global_before,
        "end_time": end,
        "pending_after": sim.pending_events,
        "draw": rng.random(),
    }
