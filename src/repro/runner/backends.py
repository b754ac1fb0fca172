"""Execution backends: where trials actually run.

Both backends take an ordered list of :class:`TrialSpec`-shaped tasks
and return :class:`TrialOutcome` objects **in task order** — ordering
is the backends' half of the determinism contract (the other half is
trials deriving all randomness from their own seed).

:class:`ProcessPoolBackend` ships the top-level trial function by
pickle reference, so worker processes import the experiment module
fresh; nothing of the parent's engine state (simulators, event queues,
RNG streams) travels along.

**The collector.**  A trial runs with CPython's cyclic collector paused
(:func:`~repro.sim.engine.collector_paused`, restored as found on every
exit).  A run makes no reference cycles, but a finished trial's whole
graph (member and network, member and policy) is cyclic garbage, and
with the collector on, full collections during the *next* trial would
re-walk it and every live object besides.  Paused, everything a trial
allocated is still in the young generation when it returns, so the
first young collection after it frees the whole trial at once.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.runner.spec import TrialFn, TrialSpec
from repro.sim.engine import collector_paused, total_events_fired

#: The picklable wire form of one task: (trial function, params, seed).
Task = Tuple[TrialFn, Dict[str, Any], int]


@dataclass
class TrialOutcome:
    """A trial's result plus its execution accounting."""

    value: Any
    events_fired: int
    elapsed_s: float


def execute_trial(trial: TrialFn, params: Dict[str, Any], seed: int) -> TrialOutcome:
    """Run one trial, attributing engine events and wall time to it."""
    events_before = total_events_fired()
    started = time.perf_counter()
    with collector_paused():
        value = trial(dict(params), seed)
    return TrialOutcome(
        value=value,
        events_fired=total_events_fired() - events_before,
        elapsed_s=time.perf_counter() - started,
    )


def _execute_task(task: Task) -> TrialOutcome:
    """Top-level pool entry point (must be picklable by reference)."""
    trial, params, seed = task
    return execute_trial(trial, params, seed)


def _tasks(specs: Sequence[TrialSpec]) -> List[Task]:
    return [(spec.trial, spec.params, spec.seed) for spec in specs]


class SerialBackend:
    """Run trials one after another in this process (the default)."""

    jobs = 1

    def run(self, specs: Sequence[TrialSpec]) -> List[TrialOutcome]:
        """Execute every spec in order."""
        return [_execute_task(task) for task in _tasks(specs)]


class ProcessPoolBackend:
    """Fan trials across *jobs* worker processes.

    Results come back in submission order (``Executor.map``), so the
    reduction downstream is independent of scheduling; a trial raising
    propagates the exception to the caller, as in serial execution.

    The worker pool is created lazily on first use and **reused across
    ``run()`` calls** — an ``all --jobs N`` invocation makes one sweep
    submission per experiment, and paying a pool spin-up (interpreter
    start + imports under the spawn start method) per experiment would
    dwarf quick-mode trial time.  Call :meth:`close` to release the
    workers early; otherwise they are reclaimed when the backend is
    garbage-collected or the process exits.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self._executor: "ProcessPoolExecutor | None" = None

    def _executor_instance(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def run(self, specs: Sequence[TrialSpec]) -> List[TrialOutcome]:
        """Execute every spec, preserving spec order in the results."""
        tasks = _tasks(specs)
        if not tasks:
            return []
        if self.jobs == 1 or len(tasks) == 1:
            return [_execute_task(task) for task in tasks]
        chunksize = max(1, len(tasks) // (self.jobs * 4))
        executor = self._executor_instance()
        return list(executor.map(_execute_task, tasks, chunksize=chunksize))
