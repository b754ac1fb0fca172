"""The ledger's stopwatch, and the host-speed samples taken while it runs.

This sandbox's processor changes speed by a factor of two or three from
one second to the next and stays slow for minutes (a fixed pure-Python
loop: 47 to 210 ms within one minute, CPU time moving with wall time),
so raw seconds of the same work on the same commit differ by more than
any bound the benchmark could state.  A :class:`Stopwatch` therefore
also records how fast the host was *while the timed region ran*: every
:data:`SAMPLE_EVERY_S` of CPU time the process consumes, a profiling
timer interrupts it and times one fixed slice of interpreter work that
touches no program code.  Timed seconds divided by the mean slice, times
:data:`REFERENCE_SLICE_S`, are *calibrated seconds*: seconds on a host
that runs a slice in exactly the reference time.  Samples taken between
bodies instead (what the ledger's first version did) follow a body's
speed too loosely to help; samples taken inside it do (README, "Measured
noise").
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import Any, Dict, List

#: CPU seconds of the process between two samples.
SAMPLE_EVERY_S = 0.02
#: Heap operations in one slice: about 3% of the time between samples.
SLICE_OPERATIONS = 1_000
#: Seconds one slice takes on this sandbox while nothing disturbs it, so
#: that calibrated seconds read as plain seconds on a quiet host here.
REFERENCE_SLICE_S = 0.00045


class Stopwatch:
    """Wall and CPU seconds of a ``with`` body, and the slices timed in it.

    ``wall_s`` and ``cpu_s`` exclude the slices' own time.  With
    ``paced=True`` the body runs against the real-time clock, so its wall
    time says nothing about host speed and is left uncalibrated.
    """

    def __init__(self, paced: bool = False) -> None:
        self.paced = paced
        self.wall_slices: List[float] = []
        self.cpu_slices: List[float] = []
        self._sampling = False

    def _sample(self, *_signal: Any) -> None:
        if self._sampling:  # a timer tick that arrived while a slice was running
            return
        self._sampling = True
        # A slice allocates, so it can set off a full collection of the
        # program's heap (120 ms on audit_registry): that cost is the
        # body's, and with the collector off the body's next allocation pays it.
        collecting = gc.isenabled()
        gc.disable()
        wall, cpu = time.perf_counter(), time.thread_time()
        heap: List[Any] = []
        seen: Dict[int, Any] = {}
        push, pop = heapq.heappush, heapq.heappop
        for index in range(SLICE_OPERATIONS):
            item = (index * 7919 % 1000, index)
            push(heap, item)
            seen[index & 1023] = item
            if index & 1:
                pop(heap)
        # thread_time, not process_time: the process clock lags the running
        # thread by up to a scheduler tick, far longer than a slice.
        self.cpu_slices.append(time.thread_time() - cpu)
        self.wall_slices.append(time.perf_counter() - wall)
        if collecting:
            gc.enable()
        self._sampling = False

    def __enter__(self) -> "Stopwatch":
        self._handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc: Any) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._handler)
        self._sample()  # a region shorter than one period still gets a sample
        self.wall_s = wall - self._wall - sum(self.wall_slices[:-1])
        self.cpu_s = cpu - self._cpu - sum(self.cpu_slices[:-1])

    @property
    def calibrated_wall_s(self) -> float:
        if self.paced:
            return self.wall_s
        return self.wall_s * REFERENCE_SLICE_S / statistics.fmean(self.wall_slices)

    @property
    def calibrated_cpu_s(self) -> float:
        return self.cpu_s * REFERENCE_SLICE_S / statistics.fmean(self.cpu_slices)

    def timings(self) -> Dict[str, Any]:
        """What a results file keeps of one timed region."""
        return {
            "wall_s": self.wall_s, "cpu_s": self.cpu_s,
            "calibrated_wall_s": self.calibrated_wall_s,
            "calibrated_cpu_s": self.calibrated_cpu_s,
            "wall_slices": self.wall_slices, "cpu_slices": self.cpu_slices,
        }
