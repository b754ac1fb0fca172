"""Property tests for the live UDP wire codec (binary ``RRMP2``).

Round-trips are generated per message type from
:data:`~repro.protocol.messages.WIRE_MESSAGE_TYPES`, so a message type
added without codec support fails here instead of at the first live
run.  The malformed-datagram half checks the strict-decoding promise:
a datagram either decodes to a well-formed frame or raises
:class:`CodecError` — nothing else ever escapes.

Example counts come from the active Hypothesis profile (``ci`` in the
``live-smoke`` job, see ``tests/conftest.py``), so no test here pins
``max_examples``.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.live.codec import (
    MAGIC,
    MAX_DATAGRAM,
    CodecError,
    Frame,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.protocol.messages import (
    DATA_WIRE_SIZE,
    REPAIR_LOCAL,
    REPAIR_REGIONAL,
    REPAIR_RELAY,
    REPAIR_REMOTE,
    WIRE_MESSAGE_TYPES,
    DataMessage,
    FeedbackReport,
    HandoffMessage,
    HaveReply,
    LocalRequest,
    ParityMessage,
    RemoteRequest,
    Repair,
    SearchRequest,
    SessionMessage,
)

HEADER_BYTES = 23  # 5s magic, c tag, I src, I dst, d sent, B group
TAG_AT = 5
GROUP_AT = 22

node_ids = st.integers(min_value=0, max_value=2**32 - 1)
seqs = st.integers(min_value=-(2**63), max_value=2**63 - 1)
times = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
#: Every multicast group name in use, plus unicast.
groups = st.sampled_from([None, "group", "session", "region"])
payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**63), max_value=2**63),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=40),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

data_messages = st.builds(DataMessage, seq=seqs, sender=node_ids,
                          payload=payloads)
parity_messages = st.builds(
    ParityMessage,
    block_id=st.integers(min_value=0, max_value=2**32 - 1),
    index=st.integers(min_value=0, max_value=255),
    r=st.integers(min_value=1, max_value=256),
    block_seqs=st.lists(seqs, max_size=40).map(tuple),
    shard=st.binary(max_size=256),
    sender=node_ids,
)

#: One strategy per wire message type, keyed by the type itself.
MESSAGE_STRATEGIES = {
    DataMessage: data_messages,
    LocalRequest: st.builds(LocalRequest, seq=seqs, requester=node_ids),
    RemoteRequest: st.builds(RemoteRequest, seq=seqs, requester=node_ids),
    Repair: st.builds(
        Repair,
        data=st.one_of(data_messages, parity_messages),
        responder=node_ids,
        scope=st.sampled_from(
            [REPAIR_LOCAL, REPAIR_REMOTE, REPAIR_REGIONAL, REPAIR_RELAY]
        ),
    ),
    ParityMessage: parity_messages,
    SessionMessage: st.builds(SessionMessage, sender=node_ids, max_seq=seqs),
    SearchRequest: st.builds(
        SearchRequest,
        seq=seqs,
        waiters=st.lists(node_ids, max_size=40).map(tuple),
        forwarder=node_ids,
        hops=st.integers(min_value=0, max_value=2**16 - 1),
    ),
    HaveReply: st.builds(HaveReply, seq=seqs, owner=node_ids),
    HandoffMessage: st.builds(
        HandoffMessage,
        data=st.one_of(data_messages, parity_messages),
        from_member=node_ids,
    ),
    FeedbackReport: st.builds(
        FeedbackReport,
        receiver=node_ids,
        loss_estimate=st.floats(min_value=0.0, max_value=1.0),
        rtt_ms=st.floats(min_value=0.0, max_value=1e6),
        max_seq=seqs,
        received=st.integers(min_value=0, max_value=2**63 - 1),
    ),
}


def test_every_wire_type_has_a_strategy():
    """Adding a message type without updating these tests fails loudly."""
    assert set(MESSAGE_STRATEGIES) == set(WIRE_MESSAGE_TYPES)


any_message = st.one_of(*MESSAGE_STRATEGIES.values())
frames = st.builds(encode_frame, node_ids, node_ids, any_message, times, groups)


def decodes_or_rejects(blob: bytes):
    """The whole contract for inbound bytes: :class:`CodecError`, or a
    frame that is equal by value to its own re-encoding.  Any other
    exception (``struct.error``, ``IndexError``, ``UnicodeDecodeError``,
    ``JSONDecodeError``, a bare ``ValueError``) propagates and fails."""
    try:
        frame = decode_frame(blob)
    except CodecError:
        return None
    assert isinstance(frame, Frame)
    assert type(frame.payload) in WIRE_MESSAGE_TYPES
    assert decode_frame(encode_frame(frame.src, frame.dst, frame.payload,
                                     frame.send_time, frame.group)) == frame
    return frame


class TestMessageRoundTrip:
    @pytest.mark.parametrize(
        "message_type", WIRE_MESSAGE_TYPES,
        ids=[t.__name__ for t in WIRE_MESSAGE_TYPES],
    )
    def test_round_trip_per_type(self, message_type):
        @given(message=MESSAGE_STRATEGIES[message_type])
        @settings(deadline=None)
        def check(message):
            assert decode_message(encode_message(message)) == message

        check()

    @given(message=any_message)
    @settings(deadline=None)
    def test_encoding_is_a_tag_byte_plus_a_body(self, message):
        encoded = encode_message(message)
        assert isinstance(encoded, bytes)
        assert encoded[0] == WIRE_MESSAGE_TYPES.index(type(message)) + 1

    def test_class_invariants_stay_off_the_wire(self):
        odd = DataMessage(seq=1, sender=0, kind="control", wire_size=9)
        plain = DataMessage(seq=1, sender=0)
        assert encode_message(odd) == encode_message(plain)
        assert decode_message(encode_message(odd)).wire_size == DATA_WIRE_SIZE

    def test_unknown_type_rejected(self):
        with pytest.raises(CodecError):
            encode_message(object())

    def test_nested_message_must_carry_payload_at_encode(self):
        with pytest.raises(CodecError, match="nested message"):
            encode_message(Repair(data=LocalRequest(seq=1, requester=0),
                                  responder=2, scope=REPAIR_LOCAL))

    @pytest.mark.parametrize("message", [
        LocalRequest(seq=2**63, requester=0),            # seq beyond int64
        LocalRequest(seq=1, requester=-1),               # node ids are unsigned
        LocalRequest(seq=1, requester=2**32),
        SearchRequest(seq=1, waiters=(), forwarder=0, hops=2**16),
        SearchRequest(seq=1, waiters=(2**63,), forwarder=0),
        LocalRequest(seq="1", requester=0),
        Repair(data=DataMessage(seq=1, sender=0), responder=2, scope="galactic"),
        DataMessage(seq=1, sender=0, payload=float("nan")),
        DataMessage(seq=1, sender=0, payload={1, 2}),
    ], ids=["seq-overflow", "negative-node", "node-overflow", "hops-overflow",
            "waiter-overflow", "str-for-int", "unknown-scope", "nan-payload",
            "non-json-payload"])
    def test_out_of_range_values_rejected_at_encode(self, message):
        with pytest.raises(CodecError):
            encode_message(message)


class TestFrameRoundTrip:
    @given(message=any_message, src=node_ids, dst=node_ids, send_time=times,
           group=groups)
    @settings(deadline=None)
    def test_round_trip(self, message, src, dst, send_time, group):
        data = encode_frame(src, dst, message, send_time=send_time,
                            group=group)
        assert data.startswith(MAGIC)
        assert decode_frame(data) == Frame(src, dst, send_time, message, group)

    def test_the_common_data_frame_is_small(self):
        frame = encode_frame(1, 2, DataMessage(seq=17, sender=0),
                             send_time=12.5, group="group")
        assert len(frame) <= 40

    def test_long_tuples_round_trip(self):
        search = SearchRequest(seq=3, waiters=tuple(range(5_000)), forwarder=1)
        parity = ParityMessage(block_id=1, index=0, r=1,
                               block_seqs=tuple(range(-2_000, 2_000)),
                               shard=b"", sender=0)
        for message in (search, parity):
            frame = encode_frame(0, 1, message, send_time=0.0)
            assert decode_frame(frame).payload == message

    def test_largest_shard_that_fits_round_trips(self):
        room = MAX_DATAGRAM - HEADER_BYTES - struct.calcsize("!IHHI") - 2 - 2
        fits = ParityMessage(block_id=0, index=0, r=1, block_seqs=(),
                             shard=b"x" * room, sender=0)
        frame = encode_frame(0, 1, fits, send_time=0.0)
        assert len(frame) == MAX_DATAGRAM
        assert decode_frame(frame).payload == fits
        for shard in (b"x" * (room + 1), b"x" * MAX_DATAGRAM):
            with pytest.raises(CodecError):
                encode_frame(0, 1, ParityMessage(block_id=0, index=0, r=1,
                                                 block_seqs=(), shard=shard,
                                                 sender=0), send_time=0.0)

    def test_unknown_group_rejected_at_encode(self):
        with pytest.raises(CodecError, match="group"):
            encode_frame(0, 1, HaveReply(seq=1, owner=0), send_time=0.0,
                         group="no-such-group")

    @pytest.mark.parametrize("src,dst", [(-1, 0), (0, -1), (2**32, 0), (0, 2**32)])
    def test_out_of_range_addresses_rejected_at_encode(self, src, dst):
        with pytest.raises(CodecError):
            encode_frame(src, dst, HaveReply(seq=1, owner=0), send_time=0.0)


def _valid_frame_bytes() -> bytes:
    return encode_frame(3, 4, DataMessage(seq=7, sender=3), send_time=1.5)


def _repair_frame(nested=None, scope=REPAIR_LOCAL) -> bytes:
    data = nested if nested is not None else DataMessage(seq=1, sender=0)
    return encode_frame(3, 4, Repair(data=data, responder=2, scope=scope),
                        send_time=1.5)


#: A frame one byte flip away from carrying ``-1e309`` (see
#: ``test_any_flipped_byte``).
OVERFLOW_FRAME = encode_frame(
    1, 2, DataMessage(seq=1, sender=0, payload=[0, -10000000309]), send_time=0.0)

#: What the retired JSON codec put on the wire for a data message.
RRMP1_FRAME = (b'RRMP1{"dst":4,"group":null,"msg":{"payload":null,"sender":3,'
               b'"seq":7,"t":"DataMessage"},"sent":1.5,"src":3}')


class TestMalformedDatagrams:
    """Every rejection path raises CodecError, never anything else."""

    @pytest.mark.parametrize("blob", [
        b"",
        b"\x00" * 40,
        b"GARBAGE" + _valid_frame_bytes()[7:],
        MAGIC,                                       # magic but nothing else
        RRMP1_FRAME,                                 # the retired JSON format
        b"RRMP1" + _valid_frame_bytes()[5:],         # old magic, new body
        _valid_frame_bytes()[:HEADER_BYTES],         # header but no body
        _valid_frame_bytes() + b"\x00",              # trailing byte
        _valid_frame_bytes()[:TAG_AT] + b"\x00" + _valid_frame_bytes()[TAG_AT + 1:],
        _valid_frame_bytes()[:TAG_AT] + b"\x0b" + _valid_frame_bytes()[TAG_AT + 1:],
        _valid_frame_bytes()[:GROUP_AT] + b"\x04" + _valid_frame_bytes()[GROUP_AT + 1:],
    ], ids=[
        "empty", "zeros", "bad-magic", "magic-only", "rrmp1-json",
        "rrmp1-magic", "header-only", "trailing-byte", "tag-zero",
        "tag-unknown", "group-unknown",
    ])
    def test_rejected_whole(self, blob):
        with pytest.raises(CodecError):
            decode_frame(blob)

    def test_oversized_datagram_rejected_before_parsing(self):
        with pytest.raises(CodecError, match="exceeds"):
            decode_frame(_valid_frame_bytes() + b"0" * MAX_DATAGRAM)

    def test_unknown_message_type(self):
        with pytest.raises(CodecError, match="unknown message type"):
            decode_message(b"\x7f" + encode_message(HaveReply(seq=1, owner=0))[1:])

    def test_truncated_and_trailing_message(self):
        encoded = encode_message(LocalRequest(seq=1, requester=0))
        with pytest.raises(CodecError, match="truncated"):
            decode_message(encoded[:-1])
        with pytest.raises(CodecError, match="trailing"):
            decode_message(encoded + b"\x00")

    def test_unknown_repair_scope(self):
        frame = _repair_frame(scope=REPAIR_RELAY)
        scope_at = HEADER_BYTES + 4  # after the responder
        assert frame[scope_at] == 3
        with pytest.raises(CodecError, match="scope"):
            decode_frame(frame[:scope_at] + b"\x04" + frame[scope_at + 1:])

    def test_nested_message_must_carry_payload(self):
        frame = _repair_frame()
        nested_at = HEADER_BYTES + 5  # after responder and scope
        assert frame[nested_at] == 1  # DataMessage
        request = encode_message(LocalRequest(seq=1, requester=0))
        with pytest.raises(CodecError, match="nested message"):
            decode_frame(frame[:nested_at] + request)

    def test_length_prefix_past_the_end(self):
        frame = _valid_frame_bytes()
        assert frame[-2:] == b"\x00\x00"  # the empty payload's length
        with pytest.raises(CodecError):
            decode_frame(frame[:-2] + b"\x00\x05")
        with pytest.raises(CodecError):  # int tuple promising 65535 items
            decode_frame(encode_frame(0, 1, SearchRequest(1, (), 0), 0.0)[:-2]
                         + b"\xff\xff")

    @pytest.mark.parametrize("payload", [
        b"\xff\xfe", b"{broken", b"NaN", b"[1,Infinity]", b"[" * 20_000,
        b"1e309", b"-1e309", b'{"a":' * 40 + b"[0,1e309]" + b"}" * 40,
    ], ids=["not-utf8", "not-json", "nan", "infinity", "nesting-bomb",
            "float-overflow", "negative-float-overflow", "nested-float-overflow"])
    def test_payload_must_be_strict_json(self, payload):
        frame = _valid_frame_bytes()[:-2] + struct.pack("!H", len(payload)) + payload
        with pytest.raises(CodecError, match="payload"):
            decode_frame(frame)

    @given(blob=st.binary(max_size=200))
    @settings(deadline=None)
    def test_arbitrary_bytes_never_escape_codecerror(self, blob):
        decodes_or_rejects(blob)

    @given(tag=st.integers(min_value=0, max_value=12), src=node_ids,
           dst=node_ids, group=st.integers(min_value=0, max_value=5),
           body=st.binary(max_size=120))
    @settings(deadline=None)
    def test_arbitrary_bodies_behind_a_valid_header(self, tag, src, dst, group, body):
        header = struct.pack("!5sBIIdB", MAGIC, tag, src, dst, 1.5, group)
        decodes_or_rejects(header + body)

    @given(frame=frames)
    @settings(deadline=None)
    def test_every_strict_prefix_is_rejected(self, frame):
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                decode_frame(frame[:cut])

    @given(frame=frames, extra=st.binary(min_size=1, max_size=1))
    @settings(deadline=None)
    def test_one_extra_byte_is_rejected(self, frame, extra):
        with pytest.raises(CodecError):
            decode_frame(frame + extra)

    @given(frame=frames, tag=st.integers(min_value=0, max_value=255))
    @settings(deadline=None)
    def test_flipped_tag_byte(self, frame, tag):
        decodes_or_rejects(frame[:TAG_AT] + bytes([tag]) + frame[TAG_AT + 1:])

    @given(message=MESSAGE_STRATEGIES[Repair], scope=st.integers(0, 255))
    @settings(deadline=None)
    def test_flipped_scope_byte(self, message, scope):
        frame = encode_frame(1, 2, message, send_time=0.0)
        scope_at = HEADER_BYTES + 4
        mutated = decodes_or_rejects(frame[:scope_at] + bytes([scope])
                                     + frame[scope_at + 1:])
        assert (mutated is not None) == (scope < 4)

    @given(frame=frames, at=st.integers(min_value=0), byte=st.integers(0, 255))
    # One digit of a payload integer flipped to "e": "-1e000000309" is
    # valid JSON grammar that float() overflows to -inf.
    @example(frame=OVERFLOW_FRAME, at=OVERFLOW_FRAME.index(b"-1") + 2, byte=ord("e"))
    @settings(deadline=None)
    def test_any_flipped_byte(self, frame, at, byte):
        at %= len(frame)
        decodes_or_rejects(frame[:at] + bytes([byte]) + frame[at + 1:])


class TestNonFiniteNumbers:
    """Regression: the JSON codec's "strict" decoder let ``NaN`` and
    ``Infinity`` through, so a hostile ``FeedbackReport`` fed TFMCC's
    worst-receiver election a NaN."""

    @pytest.mark.parametrize("sent", [float("nan"), float("inf"), -1.0])
    def test_send_time_must_be_finite_and_non_negative(self, sent):
        frame = encode_frame(1, 2, HaveReply(seq=1, owner=0), send_time=sent)
        with pytest.raises(CodecError):
            decode_frame(frame)

    @pytest.mark.parametrize("field", ["loss_estimate", "rtt_ms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), -0.5])
    def test_feedback_rates_must_be_finite_and_non_negative(self, field, value):
        report = {"receiver": 1, "loss_estimate": 0.1, "rtt_ms": 20.0,
                  "max_seq": 5, "received": 4, field: value}
        frame = encode_frame(1, 0, FeedbackReport(**report), send_time=0.0)
        with pytest.raises(CodecError):
            decode_frame(frame)
