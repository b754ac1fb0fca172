"""Sender-side FEC pipeline: group messages into blocks, emit parity.

:class:`FecEncoder` collects the sender's data messages into blocks of
``k``, serializes each message payload into a shard, and produces the
``r`` :class:`~repro.protocol.messages.ParityMessage` objects for a
block either proactively (as soon as the block fills) or on demand
(reactive mode: the first retransmission request the sender observes
for a block triggers its parity).  The sender decides *when* to encode
by calling :meth:`encode_block`; the encoder only tracks block state.

Shard layout
------------
Message payloads have arbitrary (small) sizes, but an erasure code
needs equal-length shards.  Each shard is a 4-byte big-endian length
prefix followed by the serialized payload, zero-padded to the longest
shard of its block.  The parity messages carry the padded shards; the
receiver pads its own copies of the data shards to the same length
(taken from the parity shard) before decoding, and strips the prefix
after reconstruction.

Payload serialization is a deliberately tiny tagged format covering
the types experiments use (``None``, ``bytes``, ``str``, ``int``,
``float``).  Anything else raises ``TypeError`` at *encode* time — the
sender owns its payloads, so an unsupported type is a programming
error, not a runtime condition to paper over.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.fec.codec import make_codec
from repro.net.topology import NodeId
from repro.protocol.messages import DataMessage, ParityMessage, Seq

_TAG_NONE = b"N"
_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_INT = b"I"
_TAG_FLOAT = b"F"


def encode_payload(payload: object) -> bytes:
    """Serialize a message payload to bytes (tagged, invertible)."""
    if payload is None:
        return _TAG_NONE
    if isinstance(payload, bytes):
        return _TAG_BYTES + payload
    if isinstance(payload, str):
        return _TAG_STR + payload.encode("utf-8")
    if isinstance(payload, bool):
        raise TypeError("bool payloads are not FEC-serializable")
    if isinstance(payload, int):
        return _TAG_INT + str(payload).encode("ascii")
    if isinstance(payload, float):
        return _TAG_FLOAT + repr(payload).encode("ascii")
    raise TypeError(
        f"FEC cannot serialize payload of type {type(payload).__name__}; "
        "use None, bytes, str, int or float"
    )


def decode_payload(blob: bytes) -> object:
    """Invert :func:`encode_payload`."""
    tag, body = blob[:1], blob[1:]
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_BYTES:
        return body
    if tag == _TAG_STR:
        return body.decode("utf-8")
    if tag == _TAG_INT:
        return int(body.decode("ascii"))
    if tag == _TAG_FLOAT:
        return float(body.decode("ascii"))
    raise ValueError(f"unknown payload tag {tag!r}")


def message_shard(data: DataMessage) -> bytes:
    """The unpadded shard for one data message (length-prefixed payload)."""
    body = encode_payload(data.payload)
    return len(body).to_bytes(4, "big") + body


def pad_shard(shard: bytes, length: int) -> bytes:
    """Zero-pad *shard* to *length* (no-op when already that long)."""
    if len(shard) > length:
        raise ValueError(f"shard of {len(shard)} bytes exceeds block length {length}")
    return shard + bytes(length - len(shard))


def shard_payload(shard: bytes) -> object:
    """Recover the payload from a (possibly padded) shard."""
    body_length = int.from_bytes(shard[:4], "big")
    return decode_payload(shard[4 : 4 + body_length])


class FecEncoder:
    """Groups a sender's message stream into FEC blocks.

    Blocks are sealed when ``block_size`` messages accumulate (or on
    :meth:`flush`, for a burst that ends mid-block — the parity then
    covers just the short block).  Sealed blocks keep their message
    bodies only until :meth:`encode_block` runs, so a long session
    holds at most one block of bodies per un-encoded block in reactive
    mode and none in proactive mode.
    """

    def __init__(self, block_size: int, parity: int, sender: NodeId) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if parity < 1:
            raise ValueError(f"parity must be >= 1, got {parity}")
        self.block_size = block_size
        self.parity = parity
        self.sender = sender
        self._pending: List[DataMessage] = []
        self._next_block_id = 0
        #: Sealed, not-yet-encoded blocks: id -> message tuple.
        self._sealed: Dict[int, Tuple[DataMessage, ...]] = {}
        #: Every seq ever added -> its block id (current block included).
        self._seq_to_block: Dict[Seq, int] = {}
        self._encoded: Set[int] = set()

    # ------------------------------------------------------------------
    # Block assembly
    # ------------------------------------------------------------------
    def add(self, data: DataMessage) -> Optional[int]:
        """Append one message; returns the block id it completed, if any."""
        self._pending.append(data)
        self._seq_to_block[data.seq] = self._next_block_id
        if len(self._pending) >= self.block_size:
            return self._seal()
        return None

    def flush(self) -> Optional[int]:
        """Seal the current partial block; returns its id (or ``None``)."""
        if not self._pending:
            return None
        return self._seal()

    def _seal(self) -> int:
        block_id = self._next_block_id
        self._sealed[block_id] = tuple(self._pending)
        self._pending = []
        self._next_block_id += 1
        return block_id

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def block_containing(self, seq: Seq) -> Optional[int]:
        """The *sealed* block covering *seq* (``None`` if unknown/unsealed)."""
        block_id = self._seq_to_block.get(seq)
        if block_id is None or block_id not in self._sealed and block_id not in self._encoded:
            return None
        return block_id

    def is_encoded(self, block_id: int) -> bool:
        """Whether parity for *block_id* has already been produced."""
        return block_id in self._encoded

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_block(self, block_id: int) -> List[ParityMessage]:
        """Produce the parity messages for a sealed block (once).

        Returns an empty list if the block was already encoded or is
        unknown, so callers need no pre-checks against double emission.
        """
        messages = self._sealed.pop(block_id, None)
        if messages is None:
            return []
        self._encoded.add(block_id)
        shards = [message_shard(message) for message in messages]
        length = max(len(shard) for shard in shards)
        padded = [pad_shard(shard, length) for shard in shards]
        codec = make_codec(len(padded), self.parity)
        parity_shards = codec.encode(padded)
        block_seqs = tuple(message.seq for message in messages)
        return [
            ParityMessage(
                block_id=block_id,
                index=index,
                r=self.parity,
                block_seqs=block_seqs,
                shard=shard,
                sender=self.sender,
            )
            for index, shard in enumerate(parity_shards)
        ]
