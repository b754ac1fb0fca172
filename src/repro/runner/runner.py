"""The sweep runner: cache-aware, backend-pluggable trial execution.

:class:`Runner` takes declarative :class:`~repro.runner.spec.TrialSpec`
lists, consults the result cache, executes the misses on its backend
(serially or in a process pool), stores new results, and returns values
**in spec order** — the property that makes parallel runs byte-identical
to serial ones.

Experiments do not construct runners; they route through the *ambient*
runner (:func:`current_runner`), which defaults to serial execution
with no cache — exactly the historical behaviour — and which the CLI
swaps for a parallel, cached runner via :func:`using_runner`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.runner.backends import ProcessPoolBackend, SerialBackend, TrialOutcome
from repro.runner.cache import ResultCache
from repro.runner.spec import SweepSpec, TrialSpec


@dataclass
class RunnerStats:
    """Accounting across every sweep a runner has executed."""

    trials: int = 0
    executed: int = 0
    cached: int = 0
    deduped: int = 0
    events_fired: int = 0
    elapsed_s: float = 0.0

    def add_outcome(self, outcome: TrialOutcome) -> None:
        self.events_fired += outcome.events_fired
        self.elapsed_s += outcome.elapsed_s

    def summary(self) -> str:
        """One-line summary (the CLI prints this to stderr)."""
        return (
            f"trials={self.trials} executed={self.executed} "
            f"cached={self.cached} deduped={self.deduped} "
            f"events={self.events_fired} trial_time={self.elapsed_s:.2f}s"
        )


class Runner:
    """Execute trial specs against a backend, through a result cache."""

    def __init__(
        self,
        backend: "SerialBackend | ProcessPoolBackend | None" = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.backend = backend if backend is not None else SerialBackend()
        self.cache = cache
        self.stats = RunnerStats()

    def run(self, specs: Sequence[TrialSpec]) -> List[Any]:
        """Run every spec; results come back in spec order.

        Identical specs (same cache key) within one call are coalesced
        and executed once — trials are deterministic functions of
        ``(params, seed)``, so the shared result is exact, not an
        approximation.
        """
        specs = list(specs)
        self.stats.trials += len(specs)
        results: List[Any] = [None] * len(specs)
        pending_by_key: Dict[str, List[int]] = {}
        for index, spec in enumerate(specs):
            entry = self.cache.get(spec) if self.cache is not None else None
            if entry is not None:
                results[index] = entry["result"]
                self.stats.cached += 1
                continue
            pending_by_key.setdefault(spec.cache_key(), []).append(index)

        unique_positions = [positions[0] for positions in pending_by_key.values()]
        outcomes = self.backend.run([specs[index] for index in unique_positions])
        for positions, outcome in zip(pending_by_key.values(), outcomes):
            for position in positions:
                results[position] = outcome.value
            self.stats.executed += 1
            self.stats.deduped += len(positions) - 1
            self.stats.add_outcome(outcome)
            if self.cache is not None:
                self.cache.put(
                    specs[positions[0]], outcome.value,
                    events_fired=outcome.events_fired,
                    elapsed_s=outcome.elapsed_s,
                )
        return results

    def run_sweep(self, sweep: SweepSpec) -> List[List[Any]]:
        """Run one sweep; returns one result list per grid point."""
        return sweep.group(self.run(sweep.trials()))

    def run_sweeps(self, sweeps: Sequence[SweepSpec]) -> List[List[List[Any]]]:
        """Run several sweeps as one batch (one pool fan-out), returning
        each sweep's grouped results in sweep order."""
        all_specs: List[TrialSpec] = []
        offsets: List[int] = []
        for sweep in sweeps:
            offsets.append(len(all_specs))
            all_specs.extend(sweep.trials())
        flat = self.run(all_specs)
        grouped: List[List[List[Any]]] = []
        for sweep, offset in zip(sweeps, offsets):
            count = len(sweep.grid) * len(sweep.seeds)
            grouped.append(sweep.group(flat[offset:offset + count]))
        return grouped


#: The ambient runner experiments route through when nobody installed
#: one: serial, uncached — the historical per-experiment loop behaviour.
_DEFAULT_RUNNER = Runner()
_current_runner: Runner = _DEFAULT_RUNNER


def current_runner() -> Runner:
    """The runner experiment modules should submit their sweeps to."""
    return _current_runner


@contextmanager
def using_runner(runner: Runner) -> Iterator[Runner]:
    """Install *runner* as the ambient runner for the ``with`` body."""
    global _current_runner
    previous = _current_runner
    _current_runner = runner
    try:
        yield runner
    finally:
        _current_runner = previous
