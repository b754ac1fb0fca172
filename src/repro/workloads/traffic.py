"""Sender traffic generators.

The paper's evaluation uses single-message outcomes (Figures 6-9), but
its design arguments are about *streams* ("When the sender multicasts a
stream of messages, the load of long-term buffering is spread evenly",
§3.2).  These generators model multi-message workloads against an
:class:`~repro.protocol.rrmp.RrmpSimulation` (or any facade with a
``sender.multicast()`` and a ``sim`` engine).

Pull model
----------

A generator is an *offered-load arrival process*: a monotone sequence of
instants at which the application hands the sender a message.  The
congestion-control layer (:mod:`repro.cc`) consumes it one send at a
time through :meth:`TrafficGenerator.next_send`::

    t = generator.next_send(now, credit)

where ``credit`` is the earliest instant the sender's congestion
controller permits a transmission.  The returned send instant is
``max(arrival, credit)`` — arrivals queue behind the rate limit but the
arrival process itself never shifts, so with congestion control off
(``credit = -inf``) the emitted instants are exactly the historical
open-loop schedule.

:meth:`TrafficGenerator.schedule` installs the whole arrival list
directly on a simulation (the congestion-off fast path, preserved
byte-identically).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Optional

_NO_CREDIT = float("-inf")


class TrafficGenerator(ABC):
    """A pull-driven offered-load arrival process (see module docstring)."""

    def __init__(self) -> None:
        self._cursor = 0
        self._arrival_cache: Optional[List[float]] = None

    # ------------------------------------------------------------------
    # Subclass surface
    # ------------------------------------------------------------------
    @abstractmethod
    def _arrival_times(self) -> List[float]:
        """Absolute arrival instants, sorted ascending.

        Called once per generator; random processes draw here and the
        base class memoizes, so restarts replay the same arrivals.
        """

    # ------------------------------------------------------------------
    # Pull API
    # ------------------------------------------------------------------
    def next_send(self, now: float, credit: float = _NO_CREDIT) -> Optional[float]:
        """Consume the next arrival; returns its send instant or ``None``.

        *credit* is the earliest controller-permitted transmission
        instant: the send happens at ``max(arrival, credit)``.  *now* is
        informational (the caller's clock) — arrivals are an open-loop
        offered-load process and do not shift with actual send times.
        """
        arrivals = self._arrivals()
        if self._cursor >= len(arrivals):
            return None
        arrival = arrivals[self._cursor]
        self._cursor += 1
        return arrival if arrival >= credit else credit

    def peek_arrival(self) -> Optional[float]:
        """The next arrival instant without consuming it (``None`` at end)."""
        arrivals = self._arrivals()
        if self._cursor >= len(arrivals):
            return None
        return arrivals[self._cursor]

    def restart(self) -> None:
        """Rewind to the first arrival (the arrival sequence is stable)."""
        self._cursor = 0

    def remaining(self) -> int:
        """How many arrivals have not been consumed yet."""
        return len(self._arrivals()) - self._cursor

    def arrival_count(self) -> int:
        """Total number of arrivals in the stream."""
        return len(self._arrivals())

    # ------------------------------------------------------------------
    # Open-loop install
    # ------------------------------------------------------------------
    def schedule(self, simulation) -> int:
        """Install all sends open-loop on *simulation*; returns the count.

        This is the congestion-off fast path: one simulator event per
        arrival, inserted in arrival order (byte-identical to the
        historical precomputed-list behavior).
        """
        times = self._arrivals()
        for t in times:
            simulation.sim.at(t, simulation.sender.multicast)
        return len(times)

    def end_time(self) -> float:
        """When the stream is over (used to place tail work such as the
        FEC parity flush).  Default: the last arrival instant."""
        times = self._arrivals()
        return times[-1] if times else 0.0

    # ------------------------------------------------------------------
    def _arrivals(self) -> List[float]:
        if self._arrival_cache is None:
            self._arrival_cache = self._arrival_times()
        return self._arrival_cache


class UniformStream(TrafficGenerator):
    """*count* messages at a fixed *interval*, starting at *start*."""

    def __init__(self, count: int, interval: float, start: float = 0.0) -> None:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval!r}")
        super().__init__()
        self.count = count
        self.interval = interval
        self.start = start

    def _arrival_times(self) -> List[float]:
        return [self.start + i * self.interval for i in range(self.count)]

    def end_time(self) -> float:
        return self.start + self.count * self.interval


class PoissonStream(TrafficGenerator):
    """Messages as a Poisson process of *rate* (msgs/ms) over *duration*."""

    def __init__(self, rate: float, duration: float, rng: random.Random,
                 start: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration!r}")
        super().__init__()
        self.rate = rate
        self.duration = duration
        self.start = start
        self._rng = rng

    def _arrival_times(self) -> List[float]:
        times: List[float] = []
        t = self.start
        while True:
            t += self._rng.expovariate(self.rate)
            if t >= self.start + self.duration:
                return times
            times.append(t)

    def end_time(self) -> float:
        return self.start + self.duration


class RampStream(TrafficGenerator):
    """*count* messages whose inter-send gap shrinks linearly from
    *initial_interval* down to *final_interval* — the send rate ramps
    up over the stream, modelling overload onset (the load under which
    feedback-based buffering must keep serving requests while the
    request arrival rate keeps climbing).

    The ``count - 1`` gaps interpolate the two intervals inclusively:
    the first gap is exactly *initial_interval*, the last exactly
    *final_interval* (with a single gap — ``count == 2`` — the ramp
    degenerates to just *initial_interval*).
    """

    def __init__(
        self,
        count: int,
        initial_interval: float,
        final_interval: float,
        start: float = 0.0,
    ) -> None:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if initial_interval <= 0 or final_interval <= 0:
            raise ValueError(
                f"intervals must be > 0, got {initial_interval!r}, {final_interval!r}"
            )
        super().__init__()
        self.count = count
        self.initial_interval = initial_interval
        self.final_interval = final_interval
        self.start = start

    def _gaps(self) -> List[float]:
        gaps = self.count - 1
        if gaps <= 0:
            return []
        if gaps == 1:
            return [self.initial_interval]
        span = self.final_interval - self.initial_interval
        return [
            self.initial_interval + span * (index / (gaps - 1))
            for index in range(gaps)
        ]

    def _arrival_times(self) -> List[float]:
        if self.count == 0:
            return []
        times: List[float] = []
        t = self.start
        for gap in [0.0] + self._gaps():
            t += gap
            times.append(t)
        return times

    def end_time(self) -> float:
        times = self._arrivals()
        return (times[-1] + self.final_interval) if times else self.start


class BurstStream(TrafficGenerator):
    """Explicit bursts: ``[(t, size), ...]`` sends *size* messages at *t*.

    Back-to-back sends within a burst exercise the session-message path
    (the last message of a burst has no following gap to reveal it).
    """

    def __init__(self, bursts: List) -> None:
        super().__init__()
        self.bursts = list(bursts)
        for t, size in self.bursts:
            if t < 0:
                raise ValueError(f"burst time must be >= 0, got {t!r}")
            if size < 1:
                raise ValueError(f"burst size must be >= 1, got {size}")

    def _arrival_times(self) -> List[float]:
        times: List[float] = []
        for t, size in self.bursts:
            times.extend([t] * size)
        return sorted(times)
