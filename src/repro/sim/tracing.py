"""Structured trace log for simulations.

Protocol components emit trace records (``kind`` plus free-form fields);
metric collectors and tests subscribe to the kinds they care about.
Tracing is how the experiment harness measures quantities the paper
plots — e.g. "search time" is the interval between a ``search_started``
and the matching ``search_served`` record.

The log is deliberately simple: an in-memory list plus synchronous
subscribers.  A 100-member region experiment emits a few thousand
records, so there is no need for anything fancier.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace event: a timestamp, a kind, and arbitrary fields."""

    time: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Field access with a default, mirroring ``dict.get``."""
        return self.fields.get(key, default)


Subscriber = Callable[[TraceRecord], None]


class TraceLog:
    """Collects :class:`TraceRecord` objects and fans them out.

    Set ``keep_records=False`` to run in streaming mode (subscribers
    only), which large parameter sweeps use to bound memory.

    ``enabled`` is the hot-path guard: it is true whenever an emitted
    record could be observed (records retained, or at least one
    subscriber registered).  Emit sites on hot protocol paths check it
    before building a record, so a run with tracing fully off pays no
    per-event kwargs/record cost.  The flag is an attribute, not a
    constructor snapshot, because subscribers (the invariant oracle,
    the streaming digest) attach after members are built.
    """

    def __init__(self, keep_records: bool = True) -> None:
        self.keep_records = keep_records
        self.records: List[TraceRecord] = []
        self._subscribers: List[Subscriber] = []
        self._kind_subscribers: Dict[str, List[Subscriber]] = {}
        self.enabled = keep_records

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        """Record an event at simulated *time* with the given *kind*."""
        record = TraceRecord(time, kind, fields)
        if self.keep_records:
            self.records.append(record)
        for subscriber in self._subscribers:
            subscriber(record)
        for subscriber in self._kind_subscribers.get(kind, ()):
            subscriber(record)

    def subscribe(self, subscriber: Subscriber, kind: Optional[str] = None) -> None:
        """Register *subscriber* for every record, or only records of *kind*."""
        if kind is None:
            self._subscribers.append(subscriber)
        else:
            self._kind_subscribers.setdefault(kind, []).append(subscriber)
        self.enabled = True

    def of_kind(self, kind: str) -> Iterator[TraceRecord]:
        """Iterate over retained records of the given *kind*."""
        return (record for record in self.records if record.kind == kind)

    def first(self, kind: str) -> Optional[TraceRecord]:
        """Earliest retained record of *kind*, or ``None``."""
        for record in self.records:
            if record.kind == kind:
                return record
        return None

    def count(self, kind: str) -> int:
        """Number of retained records of *kind*."""
        return sum(1 for record in self.records if record.kind == kind)

    def clear(self) -> None:
        """Drop retained records (subscribers stay registered)."""
        self.records.clear()


class NullTraceLog(TraceLog):
    """A trace log that drops everything; used when tracing is disabled.

    Subscribing to a null log is always a mistake — :meth:`emit` never
    fans out, so the subscriber would silently never fire.  That bit
    the invariant oracle once (it "attached" and then observed a
    perfectly clean, perfectly empty run), so :meth:`subscribe` refuses
    instead of accepting a dead registration.
    """

    def __init__(self) -> None:
        super().__init__(keep_records=False)

    def emit(self, time: float, kind: str, **fields: Any) -> None:  # noqa: D102
        return None

    def subscribe(self, subscriber: Subscriber, kind: Optional[str] = None) -> None:
        """Refuse: a NullTraceLog never emits, so no subscriber can fire."""
        raise RuntimeError(
            "cannot subscribe to a NullTraceLog: emit() drops every record, so "
            "the subscriber would never fire; use TraceLog(keep_records=False) "
            "for streaming-only tracing"
        )


#: One encoder for every line: ``json.dumps`` with non-default arguments
#: builds a fresh ``JSONEncoder`` per call, once per record digested.
_encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=repr).encode


def record_line(record: TraceRecord) -> bytes:
    """The canonical serialization of one record, without the newline.

    One canonical JSON line (``{"f": fields, "k": kind, "t": time}``
    with sorted keys), stable across process restarts, platforms and
    Python versions.  Tuples serialize as JSON arrays; any non-JSON
    field value falls back to ``repr``.  Both :func:`trace_digest` and
    :class:`StreamingTraceDigest` hash exactly these lines, so the two
    digest paths agree byte-for-byte — which is what lets a sharded
    run's merged digest be compared against a serial golden baseline.
    """
    return _encode_line(
        {"t": record.time, "k": record.kind, "f": record.fields}
    ).encode("utf-8")


def trace_digest(records: Iterable[TraceRecord]) -> str:
    """SHA-256 over the canonical serialization of a trace stream.

    The batch form: iterates retained records.  Runs too large to
    retain records use :class:`StreamingTraceDigest` instead; both
    produce identical digests for the same record stream (the
    golden-baseline differential tests under ``tests/baselines/``
    key on this canonical form).
    """
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(record_line(record))
        hasher.update(b"\n")
    return hasher.hexdigest()


class StreamingTraceDigest:
    """Incremental SHA-256 over a trace stream, record by record.

    Subscribing this to a ``TraceLog(keep_records=False)`` computes the
    exact digest :func:`trace_digest` would produce over the retained
    records — without holding any of them, which is what lets a
    100k-member run verify its trace digest in O(1) memory::

        digest = StreamingTraceDigest().attach(simulation.trace)
        simulation.run(...)
        assert digest.hexdigest() == expected

    ``update_line`` accepts pre-serialized canonical lines (from
    :func:`record_line`), which the shard-merge path uses to hash
    records that crossed a process boundary as bytes.
    """

    def __init__(self) -> None:
        self._hasher = hashlib.sha256()
        #: Number of records hashed so far.
        self.count = 0

    def attach(self, trace: TraceLog) -> "StreamingTraceDigest":
        """Subscribe to *trace*; returns self for chaining."""
        trace.subscribe(self.update)
        return self

    def update(self, record: TraceRecord) -> None:
        """Hash one record (usable directly as a trace subscriber)."""
        self.update_line(record_line(record))

    def update_line(self, line: bytes) -> None:
        """Hash one pre-serialized canonical record line."""
        self._hasher.update(line)
        self._hasher.update(b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        """The digest over everything hashed so far (non-destructive)."""
        return self._hasher.copy().hexdigest()
