"""Packet envelope and the payload protocol.

The transport wraps every protocol message in a :class:`Packet` that
records addressing and timing.  Payloads declare two attributes the
network model consults:

* ``kind`` — ``"data"`` for packets that carry message bodies (original
  multicasts, repairs, handoffs) and ``"control"`` for everything else
  (requests, session messages, digests).  Loss models key off this, so
  the paper's "requests and repairs are not lost" assumption is the
  default configuration rather than a hard-coded rule.
* ``wire_size`` — nominal bytes on the wire (FEC's parity-overhead
  trace reports it; the transport counts sends, not bytes).
"""

from __future__ import annotations

from functools import partial
from typing import Any, NamedTuple, Optional

from repro.net.topology import NodeId

KIND_DATA = "data"
KIND_CONTROL = "control"


class Packet(NamedTuple):
    """One point-to-point delivery (multicasts become one per receiver).

    A tuple, so its fields are read-only and the network builds one per
    delivery positionally, in this field order.
    """

    src: NodeId
    dst: NodeId
    payload: Any
    kind: str
    send_time: float
    deliver_time: float
    multicast_group: Optional[str] = None

    @property
    def latency(self) -> float:
        """One-way delay this packet experienced."""
        return self.deliver_time - self.send_time


#: ``make_packet((src, dst, payload, kind, send_time, deliver_time,
#: multicast_group))`` builds a :class:`Packet` from all seven fields in
#: field order, in C: the paths that build one per delivery skip the
#: Python frame of the NamedTuple's ``__new__``.
make_packet = partial(tuple.__new__, Packet)
