"""The payload protocol, and the frame a wire hands over.

The simulated network carries protocol messages as they are: a delivery
is its payload, handed to the destination's endpoint with no envelope
around it.  The sender, send time and group travel only where a wire
needs them, in a live datagram's header; the live transport hands its
endpoint the decoded :class:`Frame`, whose ``payload`` is the message.
Payloads declare two attributes the network model consults:

* ``kind`` — ``"data"`` for packets that carry message bodies (original
  multicasts, repairs, handoffs) and ``"control"`` for everything else
  (requests, session messages, digests).  Loss models key off this, so
  the paper's "requests and repairs are not lost" assumption is the
  default configuration rather than a hard-coded rule.  A payload
  without one is sent as ``"control"``.
* ``wire_size`` — nominal bytes on the wire (FEC's parity-overhead
  trace reports it; the transport counts sends, not bytes).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

KIND_DATA = "data"
KIND_CONTROL = "control"


class Frame(NamedTuple):
    """One decoded datagram: addressing plus the carried message."""

    src: int
    dst: int
    send_time: float
    payload: Any
    group: Optional[str] = None
