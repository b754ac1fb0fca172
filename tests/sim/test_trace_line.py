"""The compiled trace line *is* the JSON line, by property.

:func:`repro.sim.tracing.record_line` writes the text around a record's
values from a layout compiled once per ``(kind, *field names)`` and
encodes plain scalars itself.  The format is still defined by
``json.dumps(..., sort_keys=True, separators=(",", ":"), default=repr)``:
for generated kinds, times and field dicts the two must agree byte for
byte, and the batch digest must agree with the per-line reference on
every generated stream — across a chunk boundary and for the empty
stream.
"""

import enum
import hashlib
import json
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from repro.sim import tracing
from repro.sim.tracing import TraceRecord, record_line, trace_digest


def reference_line(record):
    return json.dumps(
        {"t": record.time, "k": record.kind, "f": record.fields},
        sort_keys=True, separators=(",", ":"), default=repr,
    ).encode()


def reference_digest(records):
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(reference_line(record) + b"\n")
    return hasher.hexdigest()


class Colour(enum.IntEnum):
    RED = 3


class Metres(float):
    pass


class Label(str):
    pass


class Opaque:
    """Not JSON: the encoder's ``default=repr`` writes it."""

    def __repr__(self):
        return '<opaque "\\x">'


any_text = st.text(st.characters())  # lone surrogates and non-BMP included
awkward_text = st.sampled_from([
    "", '"', "\\", 'say "hi"\\n', "\x00\x1f\x7f", "tab\there", "\U0001f600", "\ud800", "é%s{}",
])
scalars = st.one_of(
    st.integers(),
    st.sampled_from([2 ** 64 + 1, -(2 ** 70), 0, -1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e-7, 1e22, 1.5e300, float("nan"), float("inf"), float("-inf")]),
    any_text, awkward_text,
    st.booleans(), st.none(),
    st.sampled_from([Colour.RED, Metres(2.5), Metres("nan"), Label('a"b'), Opaque()]),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.dictionaries(any_text, children, max_size=3),
    ),
    max_leaves=6,
)
names = st.one_of(
    st.sampled_from(["node", "seq", "via", "latency", "waiters"]),
    any_text, awkward_text, st.builds(Label, any_text),
)
fields = st.dictionaries(names, values, max_size=6)
kinds = st.one_of(
    st.sampled_from(["member_received", "buffer_add", "k"]),
    any_text, awkward_text,
    st.sampled_from([Label("member_received"), 7, None, ("a", 1), ["unhashable"]]),
)
times = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=10 ** 6),
    st.sampled_from([0.0, 12.5, float("inf")]),
)
records = st.builds(TraceRecord, times, kinds, fields)


@st.composite
def streams(draw):
    """Records whose times come from a small pool of shared objects, as
    records emitted at one instant share ``sim.now``."""
    pool = draw(st.lists(times, min_size=1, max_size=3))
    return draw(st.lists(
        st.builds(TraceRecord, st.sampled_from(pool), kinds, fields), max_size=10))


@given(records)
def test_record_line_is_the_json_line(record):
    assert record_line(record) == reference_line(record)


@given(times, kinds, fields, st.randoms(use_true_random=False))
def test_emit_order_of_the_names_does_not_matter(time, kind, fields_, rng):
    items = list(fields_.items())
    rng.shuffle(items)
    first, second = TraceRecord(time, kind, fields_), TraceRecord(time, kind, dict(items))
    assert record_line(first) == record_line(second) == reference_line(first)


@mock.patch.object(tracing, "_DIGEST_CHUNK", 4)  # streams of 0..10: none, part, whole, several
@given(streams())
def test_digest_paths_agree_across_chunk_boundaries(stream):
    assert trace_digest(iter(stream)) == reference_digest(stream)


def test_empty_stream():
    assert trace_digest([]) == hashlib.sha256().hexdigest()


def test_a_trace_longer_than_the_real_chunk():
    stream = [TraceRecord(index // 3 * 0.5, "member_received", {"seq": index, "node": 1})
              for index in range(tracing._DIGEST_CHUNK * 2 + 5)]
    assert trace_digest(stream) == reference_digest(stream)


def test_non_string_names_are_left_to_the_encoder():
    for hand_built in ({1: 2}, {None: 1}, {True: "x"}, {1.5: 2, 0.5: (1, 2)}):
        record = TraceRecord(1.0, "k", hand_built)
        assert record_line(record) == reference_line(record)
    assert record_line(TraceRecord(1, "k")) == b'{"f":{},"k":"k","t":1}'


def test_a_second_digest_compiles_nothing():
    stream = [TraceRecord(1.0, "second_digest_probe", {"b": 1, "a": "x"}),
              TraceRecord(1.0, "second_digest_probe", {"a": "y", "b": 2}),
              TraceRecord(2.0, "second_digest_probe", {})]
    first = trace_digest(stream)
    layouts = dict(tracing._layouts)
    assert {key for key in layouts if key[0] == "second_digest_probe"} == {
        ("second_digest_probe", "b", "a"), ("second_digest_probe", "a", "b"),
        ("second_digest_probe",)}
    with mock.patch.object(tracing, "_compile_layout", side_effect=AssertionError):
        assert trace_digest(stream) == first
    assert tracing._layouts == layouts
