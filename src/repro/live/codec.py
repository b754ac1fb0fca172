"""Binary wire codec for RRMP messages over UDP (format ``RRMP2``).

RRMP's cost is meant to sit in buffering and recovery decisions, not in
serialization, so a datagram is one fixed header and one fixed body
with a few length-prefixed tails, packed by precompiled
:class:`struct.Struct` objects in network byte order:

    header  5s magic "RRMP2" | c type tag | I src | I dst | d sent (ms) | B group
    body    the type's fixed struct, then its parts in order

The live transport multiplexes every co-located member over one socket,
so ``src``/``dst`` ride in the header, not the UDP header.  Only ``dst``
differs between the receivers of a fan-out, which :func:`frame_encoder`
exploits: the body is packed once per send, a header once per receiver.

* **One table, both directions.**  :data:`_SCHEMAS` lists, per type in
  :data:`repro.protocol.messages.WIRE_MESSAGE_TYPES`, its tag, fixed
  struct and parts; encoder and decoder are compiled from the same row.
* **Variable parts are length-prefixed** (``H`` count, then the items):
  ``DataMessage.payload`` as strict JSON bytes (zero length = ``None``,
  all the experiments send), ``ParityMessage.shard`` as raw bytes, int
  tuples as 64-bit items.  **Nested messages** (``Repair.data``,
  ``HandoffMessage.data``) are a tag plus a body, restricted to the
  payload-bearing types.
* **Strict decoding.**  Wrong magic (the retired JSON ``RRMP1``
  included), unknown tag, group or repair scope, short or trailing
  bytes, oversize datagrams, non-finite or negative times and rates all
  raise :class:`CodecError` and nothing else — a malformed datagram
  must never surface as a half-built message.
* Multicast group names are a closed set (one byte on the wire); a new
  name is a new :data:`_GROUPS` entry.  ``kind``/``wire_size`` are class
  invariants (trailing dataclass defaults) and stay off the wire.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import fields
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Optional, Tuple

from repro.net.packet import Frame
from repro.protocol.messages import (
    REPAIR_LOCAL,
    REPAIR_REGIONAL,
    REPAIR_RELAY,
    REPAIR_REMOTE,
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

MAGIC = b"RRMP2"

#: Hard ceiling on accepted datagram size; far above any real frame
#: (nominal data payloads are 1 KB) and what every ``H`` length prefix
#: can address, so a hostile blob cannot make a decoder chew megabytes.
MAX_DATAGRAM = 64 * 1024

_HEADER = struct.Struct("!5scIIdB")
_LENGTH = struct.Struct("!H")
_DOUBLE = struct.Struct("!d")
_NO_PAYLOAD = _LENGTH.pack(0)

#: Wire codes (the index) of the multicast group names in use; ``None``
#: is a unicast.
_GROUPS = (None, "group", "session", "region")
_GROUP_CODES = {name: code for code, name in enumerate(_GROUPS)}
_SCOPE_CODES = {REPAIR_LOCAL: b"\x00", REPAIR_REMOTE: b"\x01",
                REPAIR_REGIONAL: b"\x02", REPAIR_RELAY: b"\x03"}
_SCOPES = {code: name for name, code in _SCOPE_CODES.items()}


class CodecError(ValueError):
    """A datagram or message that cannot be (de)coded."""


# ----------------------------------------------------------------------
# Parts: fields a fixed struct cannot carry (variable length) or cannot
# validate.  encode(value) -> bytes, decode(data, offset) -> (value, end).
# Every decoder validates and raises CodecError (or struct.error on a
# short buffer, which the entry points translate).
# ----------------------------------------------------------------------
def _enc_bytes(value: bytes) -> bytes:
    return _LENGTH.pack(len(value)) + value


def _dec_bytes(data: bytes, offset: int) -> Tuple[bytes, int]:
    start = offset + _LENGTH.size
    end = start + _LENGTH.unpack_from(data, offset)[0]
    if end > len(data):
        raise CodecError("datagram ends inside a length-prefixed part")
    return data[start:end], end


_dump_payload = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode


def _reject_constant(name: str) -> Any:
    raise CodecError(f"payload holds the non-JSON constant {name}")


def _finite_float(literal: str) -> float:
    # ``1e309`` is valid JSON grammar but overflows to ``inf``, which
    # ``_dump_payload`` (allow_nan=False) would then refuse to re-encode.
    value = float(literal)
    if not math.isfinite(value):
        raise CodecError(f"payload holds the out-of-range number {literal}")
    return value


_load_payload = json.JSONDecoder(
    parse_constant=_reject_constant, parse_float=_finite_float
).decode


def _enc_json(value: Any) -> bytes:
    if value is None:
        return _NO_PAYLOAD
    try:
        return _enc_bytes(_dump_payload(value).encode("utf-8"))
    except (TypeError, ValueError, RecursionError) as error:
        raise CodecError(f"payload is not JSON-serializable: {error}") from error


def _dec_json(data: bytes, offset: int) -> Tuple[Any, int]:
    if data[offset:offset + _LENGTH.size] == _NO_PAYLOAD:
        return None, offset + _LENGTH.size
    raw, end = _dec_bytes(data, offset)
    try:
        return _load_payload(raw.decode("utf-8")), end
    except (ValueError, RecursionError) as error:
        raise CodecError(f"payload is not valid JSON: {error}") from error


def _enc_ints(value: Tuple[int, ...]) -> bytes:
    return struct.pack(f"!H{len(value)}q", len(value), *value)


def _dec_ints(data: bytes, offset: int) -> Tuple[Tuple[int, ...], int]:
    items = struct.Struct(f"!{_LENGTH.unpack_from(data, offset)[0]}q")
    start = offset + _LENGTH.size
    return items.unpack_from(data, start), start + items.size


def _enc_nested(value: Any) -> bytes:
    tag, encode = _ENCODERS.get(type(value), (None, None))
    if tag not in _NESTED_TAGS:
        raise CodecError("nested message must be DataMessage or ParityMessage, "
                         f"got {type(value).__name__}")
    return tag + encode(value)


def _dec_nested(data: bytes, offset: int) -> Tuple[Any, int]:
    tag = data[offset:offset + 1]
    if tag not in _NESTED_TAGS:
        raise CodecError(f"nested message must be DataMessage or ParityMessage, got tag {tag!r}")
    return _DECODERS[tag](data, offset + 1)


def _enc_scope(value: str) -> bytes:
    code = _SCOPE_CODES.get(value)
    if code is None:
        raise CodecError(f"unknown repair scope {value!r}")
    return code


def _dec_scope(data: bytes, offset: int) -> Tuple[str, int]:
    scope = _SCOPES.get(data[offset:offset + 1])
    if scope is None:
        raise CodecError(f"unknown repair scope code at byte {offset}")
    return scope, offset + 1


def _magnitude(value: float) -> float:
    """A time or rate off the wire: NaN, infinities and negatives would
    poison every comparison downstream (TFMCC's worst-receiver election
    for one), so they are rejected here."""
    if not 0.0 <= value < math.inf:
        raise CodecError(f"expected a finite non-negative number, got {value!r}")
    return value


def _dec_magnitude(data: bytes, offset: int) -> Tuple[float, int]:
    return _magnitude(_DOUBLE.unpack_from(data, offset)[0]), offset + _DOUBLE.size


_Part = Tuple[Callable[[Any], bytes], Callable[[bytes, int], Tuple[Any, int]]]
_BYTES: _Part = (_enc_bytes, _dec_bytes)
_JSON: _Part = (_enc_json, _dec_json)
_INTS: _Part = (_enc_ints, _dec_ints)
_NESTED: _Part = (_enc_nested, _dec_nested)
_SCOPE: _Part = (_enc_scope, _dec_scope)
_MAGNITUDE: _Part = (_DOUBLE.pack, _dec_magnitude)

# ----------------------------------------------------------------------
# Per-type schemas: type -> (tag, fixed struct layout, its fields,
# ((field, part), ...)).  The wire carries the fixed struct, then the
# parts in order.
# ----------------------------------------------------------------------
_SCHEMAS: Dict[type, Tuple[bytes, str, Tuple[str, ...], Tuple[Tuple[str, _Part], ...]]] = {
    DataMessage: (b"\x01", "qI", ("seq", "sender"), (("payload", _JSON),)),
    LocalRequest: (b"\x02", "qI", ("seq", "requester"), ()),
    RemoteRequest: (b"\x03", "qI", ("seq", "requester"), ()),
    Repair: (b"\x04", "I", ("responder",), (("scope", _SCOPE), ("data", _NESTED))),
    ParityMessage: (b"\x05", "IHHI", ("block_id", "index", "r", "sender"),
                    (("block_seqs", _INTS), ("shard", _BYTES))),
    SessionMessage: (b"\x06", "Iq", ("sender", "max_seq"), ()),
    SearchRequest: (b"\x07", "qIH", ("seq", "forwarder", "hops"),
                    (("waiters", _INTS),)),
    HaveReply: (b"\x08", "qI", ("seq", "owner"), ()),
    HandoffMessage: (b"\x09", "I", ("from_member",), (("data", _NESTED),)),
    FeedbackReport: (b"\x0a", "Iqq", ("receiver", "max_seq", "received"),
                     (("loss_estimate", _MAGNITUDE), ("rtt_ms", _MAGNITUDE))),
}


def _compile(message_type: type, layout: str, fixed: Tuple[str, ...],
             parts: Tuple[Tuple[str, _Part], ...]) -> _Part:
    """One schema row -> (encode body, decode body at an offset)."""
    body = struct.Struct("!" + layout)
    wire_order = fixed + tuple(name for name, _part in parts)
    declared = tuple(field.name for field in fields(message_type))[:len(wire_order)]
    if sorted(declared) != sorted(wire_order):
        raise TypeError(f"wire schema of {message_type.__name__} names "
                        f"{wire_order!r}, the type declares {declared!r}")
    # attrgetter of one name returns the bare value, not a 1-tuple.
    get_fixed = (attrgetter(*fixed) if len(fixed) > 1
                 else lambda message, get=attrgetter(*fixed): (get(message),))
    part_encoders = [(attrgetter(name), encode_part) for name, (encode_part, _) in parts]
    part_decoders = [decode_part for _name, (_, decode_part) in parts]
    # The constructor is called positionally, so decoded values go back
    # into declaration order where the wire order differs.
    reorder = (None if declared == wire_order
               else itemgetter(*(wire_order.index(name) for name in declared)))

    def encode(message: Any) -> bytes:
        data = body.pack(*get_fixed(message))
        for get_part, encode_part in part_encoders:
            data += encode_part(get_part(message))
        return data

    def decode(data: bytes, offset: int) -> Tuple[Any, int]:
        values = body.unpack_from(data, offset)
        offset += body.size
        for decode_part in part_decoders:
            value, offset = decode_part(data, offset)
            values += (value,)
        if reorder is not None:
            values = reorder(values)
        return message_type(*values), offset

    return encode, decode


_ENCODERS: Dict[type, Tuple[bytes, Callable[[Any], bytes]]] = {}
_DECODERS: Dict[bytes, Callable[[bytes, int], Tuple[Any, int]]] = {}
for _type, (_tag, *_row) in _SCHEMAS.items():
    _encode_body, _DECODERS[_tag] = _compile(_type, *_row)
    _ENCODERS[_type] = (_tag, _encode_body)
_NESTED_TAGS = frozenset(_ENCODERS[_type][0] for _type in (DataMessage, ParityMessage))


def _encode(message: Any) -> Tuple[bytes, bytes]:
    """A protocol message as (type tag, body)."""
    encoder = _ENCODERS.get(type(message))
    if encoder is None:
        raise CodecError(f"cannot encode message type {type(message).__name__!r}")
    try:
        return encoder[0], encoder[1](message)
    except struct.error as error:
        raise CodecError(f"{type(message).__name__} does not fit the wire: {error}") from error


def _decode_at(tag: bytes, data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode the body of a *tag* message at *offset*: (message, end)."""
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise CodecError(f"unknown message type tag {tag!r}")
    return decoder(data, offset)


def encode_message(message: Any) -> bytes:
    """Encode a protocol message as its type tag plus its body."""
    tag, body = _encode(message)
    return tag + body


def decode_message(data: bytes) -> Any:
    """Decode a tag plus body back into a protocol message (strict)."""
    try:
        message, end = _decode_at(data[:1], data, 1)
    except struct.error as error:
        raise CodecError(f"truncated message: {error}") from error
    if end != len(data):
        raise CodecError(f"{len(data) - end} trailing bytes after the message")
    return message


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def frame_encoder(src: int, payload: Any, send_time: float,
                  group: Optional[str] = None) -> Callable[[int], bytes]:
    """Encode everything the receivers of one send share, once.

    Returns ``frame(dst) -> bytes``: the datagram for one destination,
    at the cost of one header pack.
    """
    tag, body = _encode(payload)
    code = _GROUP_CODES.get(group)
    if code is None:
        raise CodecError(f"multicast group {group!r} has no wire code")
    if _HEADER.size + len(body) > MAX_DATAGRAM:
        raise CodecError(f"frame of {_HEADER.size + len(body)} bytes exceeds {MAX_DATAGRAM}")

    def frame(dst: int) -> bytes:
        try:
            return _HEADER.pack(MAGIC, tag, src, dst, send_time, code) + body
        except struct.error as error:
            raise CodecError(f"frame header does not fit the wire: {error}") from error

    return frame


def encode_frame(src: int, dst: int, payload: Any, send_time: float,
                 group: Optional[str] = None) -> bytes:
    """Serialize one datagram: header plus message body."""
    return frame_encoder(src, payload, send_time, group)(dst)


def decode_frame(data: bytes) -> Frame:
    """Parse and validate one datagram; raises :class:`CodecError`."""
    if len(data) > MAX_DATAGRAM:
        raise CodecError(f"datagram of {len(data)} bytes exceeds {MAX_DATAGRAM}")
    try:
        magic, tag, src, dst, sent, group = _HEADER.unpack_from(data)
        if magic != MAGIC:
            raise CodecError("bad magic: not an RRMP2 datagram")
        payload, end = _decode_at(tag, data, _HEADER.size)
    except struct.error as error:
        raise CodecError(f"truncated datagram: {error}") from error
    if end != len(data):
        raise CodecError(f"{len(data) - end} trailing bytes after the message")
    if group >= len(_GROUPS):
        raise CodecError(f"unknown multicast group code {group}")
    return Frame(src, dst, _magnitude(sent), payload, _GROUPS[group])
