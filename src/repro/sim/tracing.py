"""Structured trace log for simulations.

Protocol components emit trace records (``kind`` plus free-form fields);
metric collectors and tests subscribe to the kinds they care about.
Tracing is how the experiment harness measures quantities the paper
plots — e.g. "search time" is the interval between a ``search_started``
and the matching ``search_served`` record.

The log is an in-memory list plus synchronous subscribers.  "Not
traced" is a :class:`TraceLog` that retains nothing and has no
subscriber: its ``enabled`` flag is false and hot emit sites skip the
record.  An observed run emits a record for most things it does, so two
contracts keep one cheap:

* **Routes.**  :meth:`TraceLog.emit` hands a record to one tuple of
  callables per kind: ``records.append`` if records are retained, then
  the all-kind subscribers, then that kind's, in subscription order.  A
  route is built on first use and dropped by every ``subscribe``, so
  subscribing from inside a callback takes effect from the next record.
* **Layouts.**  The canonical line (:func:`record_line`) is what the
  JSON encoder writes for ``{"t": time, "k": kind, "f": fields}``.  The
  text around the values is compiled once per ``(kind, *field names)``;
  plain scalars are encoded here, everything else by that encoder, which
  stays the definition of the format.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Any, Callable, DefaultDict, Dict, Iterable, Iterator, List, Optional, Tuple


class TraceRecord:
    """One trace event: a timestamp, a kind, and arbitrary fields."""

    __slots__ = ("time", "kind", "fields")

    def __init__(self, time: float, kind: str, fields: Optional[Dict[str, Any]] = None) -> None:
        self.time = time
        self.kind = kind
        self.fields: Dict[str, Any] = {} if fields is None else fields

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time, self.kind, self.fields) == (other.time, other.kind, other.fields)

    def __repr__(self) -> str:
        return f"TraceRecord(time={self.time!r}, kind={self.kind!r}, fields={self.fields!r})"

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
        #: kind -> every callable a record of that kind is handed to.
        self._routes: Dict[str, Tuple[Subscriber, ...]] = {}
        #: kind -> records emitted since the last :meth:`clear`.
        self._counts: DefaultDict[str, int] = defaultdict(int)
        self._emitted_before_clear = 0
        self.enabled = keep_records

    def emit(self, time: float, kind: str, **fields: Any) -> None:
        """Record an event at simulated *time* with the given *kind*."""
        record = TraceRecord(time, kind, fields)
        self._counts[kind] += 1
        try:
            route = self._routes[kind]
        except KeyError:
            route = self._route(kind)
        for deliver in route:
            deliver(record)

    def _route(self, kind: str) -> Tuple[Subscriber, ...]:
        retain = [self.records.append] if self.keep_records else []
        route = self._routes[kind] = (
            *retain, *self._subscribers, *self._kind_subscribers.get(kind, ()))
        return route

    def subscribe(self, subscriber: Subscriber, kind: Optional[str] = None) -> None:
        """Register *subscriber* for every record, or only records of *kind*."""
        if kind is None:
            self._subscribers.append(subscriber)
        else:
            self._kind_subscribers.setdefault(kind, []).append(subscriber)
        self._routes.clear()
        self.enabled = True

    @property
    def emitted(self) -> int:
        """Records emitted over the log's lifetime (never reset)."""
        return self._emitted_before_clear + sum(self._counts.values())

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
        """Records of *kind* emitted since the last :meth:`clear`, retained or not."""
        return self._counts.get(kind, 0)

    def clear(self) -> None:
        """Drop retained records and zero :meth:`count` (subscribers stay registered)."""
        self._emitted_before_clear = self.emitted
        self._counts.clear()
        self.records.clear()


#: The definition of the line format and the encoder of every non-scalar
#: value.  Built once: ``json.dumps`` would build an encoder per call.
_encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=repr).encode


#: Exact type -> JSON text of a scalar, as the encoder writes it; any
#: other type (containers, subclasses, objects) goes to ``_encode_line``.
_SCALAR_TEXT: Dict[type, Callable[[Any], str]] = {
    int: int.__repr__,
    float: lambda value: float.__repr__(value) if isfinite(value) else _encode_line(value),
    str: _quote,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}

#: ``((text before the value, field name), ...)`` in sorted-name order,
#: then the text between the last value and the time.
_Layout = Tuple[Tuple[Tuple[str, str], ...], str]

#: ``(kind, *field names as emitted)`` -> layout, the observed trace schema;
#: ``None`` where the kind or a name is not an exact ``str``.
_layouts: Dict[Tuple[Any, ...], Optional[_Layout]] = {}


def _compile_layout(kind: Any, names: Tuple[Any, ...]) -> Optional[_Layout]:
    if type(kind) is not str or any(type(name) is not str for name in names):
        return None
    before = tuple((('{"f":{' if index == 0 else ",") + _quote(name) + ":", name)
                   for index, name in enumerate(sorted(names)))
    return before, ('},"k":' if before else '{"f":{},"k":') + _quote(kind) + ',"t":'


def _value_text(value: Any) -> str:
    return _SCALAR_TEXT.get(type(value), _encode_line)(value)


def _line_text(record: TraceRecord, time_text: Optional[str] = None) -> str:
    """The canonical line as text; *time_text* is ``_value_text(record.time)``
    when the caller already has it."""
    fields = record.fields
    key = (record.kind, *fields)
    try:
        layout = _layouts[key]
    except KeyError:
        layout = _layouts[key] = _compile_layout(record.kind, key[1:])
    except TypeError:  # an unhashable kind
        layout = None
    if layout is None:
        return _encode_line({"t": record.time, "k": record.kind, "f": fields})
    before, closing = layout
    parts = []
    for prefix, name in before:
        parts.append(prefix)
        parts.append(_value_text(fields[name]))
    parts.append(closing)
    parts.append(time_text or _value_text(record.time))
    parts.append("}")
    return "".join(parts)


def _line_texts(records: Iterable[TraceRecord]) -> Iterator[str]:
    """Lines of a stream.  Records emitted at one instant share
    ``sim.now`` as one float object, so its text is encoded once."""
    last_time = time_text = None
    for record in records:
        if record.time is not last_time:
            last_time = record.time
            time_text = _value_text(last_time)
        yield _line_text(record, time_text)


def record_line(record: TraceRecord) -> bytes:
    """The canonical serialization of one record, without the newline.

    One canonical JSON line (``{"f": fields, "k": kind, "t": time}``
    with sorted keys), stable across process restarts, platforms and
    Python versions.  Tuples serialize as JSON arrays; any non-JSON
    field value falls back to ``repr``.  Every digest (batch, streaming,
    the flat engine's commutative one) hashes exactly these lines, which
    is what lets a sharded run's merged digest be compared against a
    serial golden baseline.
    """
    return _line_text(record).encode("utf-8")


#: Lines per ``hasher.update``: a long trace is never held as one string.
_DIGEST_CHUNK = 4096


def trace_digest(records: Iterable[TraceRecord]) -> str:
    """SHA-256 over the canonical serialization of a trace stream.

    The batch form: iterates retained records.  Runs too large to
    retain records use :class:`StreamingTraceDigest` instead; both
    produce identical digests for the same record stream (the
    golden-baseline differential tests under ``tests/baselines/``
    key on this canonical form).
    """
    hasher = hashlib.sha256()
    lines = _line_texts(records)
    for chunk in iter(lambda: list(islice(lines, _DIGEST_CHUNK)), []):
        chunk.append("")  # every line ends in a newline, the last one too
        hasher.update("\n".join(chunk).encode("utf-8"))
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
