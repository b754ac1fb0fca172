"""Golden wire vectors: one ``RRMP2`` frame per wire message type.

The property tests in ``tests/live/test_wire_codec.py`` prove the codec
agrees with itself; these bytes prove it agrees with what is deployed.
Any change to ``tests/baselines/wire_frames.json`` is a wire-format
change: peers running the previous commit stop understanding this one.
When that is intended, re-bless *deliberately*, like the trace digests:

    RRMP_UPDATE_BASELINES=1 PYTHONPATH=src python -m pytest tests/baselines/test_wire_frames.py

The vectors are keyed off
:data:`~repro.protocol.messages.WIRE_MESSAGE_TYPES`, so a new message
type without a vector fails here.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.live.codec import decode_frame, encode_frame
from repro.net.packet import Frame
from repro.protocol.messages import (
    REPAIR_REGIONAL,
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

BASELINE_PATH = Path(__file__).parent / "wire_frames.json"
UPDATE_ENV = "RRMP_UPDATE_BASELINES"

_PARITY = ParityMessage(block_id=3, index=1, r=2, block_seqs=(9, 10, 11),
                        shard=b"\x00\xffshard", sender=0)

#: One frame per wire type; between them every group code, a negative
#: (parity) sequence, a non-empty payload and both nested types appear.
VECTORS = {
    type(frame.payload): frame for frame in (
        Frame(0, 7, 12.5, DataMessage(seq=17, sender=0, payload={"k": ["é", 1]}), "session"),
        Frame(7, 8, 40.25, LocalRequest(seq=17, requester=7)),
        Frame(7, 64, 41.0, RemoteRequest(seq=17, requester=7)),
        Frame(8, 7, 52.0, Repair(data=DataMessage(seq=17, sender=0), responder=8,
                                 scope=REPAIR_REGIONAL), "region"),
        Frame(0, 7, 13.0, _PARITY, "session"),
        Frame(0, 7, 500.0, SessionMessage(sender=0, max_seq=100), "session"),
        Frame(64, 65, 60.0, SearchRequest(seq=_PARITY.seq, waiters=(7, 9), forwarder=64,
                                          hops=2)),
        Frame(65, 66, 61.5, HaveReply(seq=17, owner=65), "region"),
        Frame(9, 10, 900.0, HandoffMessage(data=_PARITY, from_member=9)),
        Frame(7, 0, 250.0, FeedbackReport(receiver=7, loss_estimate=0.0625, rtt_ms=90.0,
                                          max_seq=100, received=93), "group"),
    )
}


def _load_baselines() -> dict:
    if not BASELINE_PATH.exists():
        return {}
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_baseline_file_covers_exactly_the_wire_types() -> None:
    """Stale vectors (renamed/removed message types) must not linger."""
    if os.environ.get(UPDATE_ENV):
        pytest.skip("baseline update mode")
    assert sorted(_load_baselines()) == sorted(t.__name__ for t in WIRE_MESSAGE_TYPES)


@pytest.mark.parametrize("message_type", WIRE_MESSAGE_TYPES,
                         ids=[t.__name__ for t in WIRE_MESSAGE_TYPES])
def test_frame_matches_its_golden_bytes(message_type: type) -> None:
    name = message_type.__name__
    assert message_type in VECTORS, f"add a golden wire vector for {name}"
    frame = VECTORS[message_type]
    fresh = encode_frame(frame.src, frame.dst, frame.payload, frame.send_time,
                         frame.group).hex()
    if os.environ.get(UPDATE_ENV):
        baselines = _load_baselines()
        baselines[name] = fresh
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(dict(sorted(baselines.items())), handle, indent=2)
            handle.write("\n")
        pytest.skip(f"wire vector for {name!r} updated ({UPDATE_ENV} set)")
    baselines = _load_baselines()
    assert name in baselines, (
        f"no golden wire vector for {name!r}; run with {UPDATE_ENV}=1 to "
        "record one and commit tests/baselines/wire_frames.json"
    )
    assert fresh == baselines[name], (
        f"{name} no longer encodes to its golden bytes: the wire format "
        f"changed.  If that is intended, re-bless with {UPDATE_ENV}=1."
    )
    assert decode_frame(bytes.fromhex(baselines[name])) == frame
