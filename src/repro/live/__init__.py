"""Live asyncio-UDP runtime for RRMP.

The simulator validates the protocol; this package *deploys* it: the
same :class:`~repro.protocol.member.RrmpMember` code runs over real UDP
sockets, driven by a wall-clock :class:`~repro.live.clock.LiveClock`
instead of the discrete-event engine.  The clock both runtimes
implement is pinned by the structural protocols of
:mod:`repro.live.runtime`; :class:`~repro.live.transport.LiveTransport`
is the simulated :class:`~repro.net.transport.Network` with a UDP socket
as its last step; :mod:`repro.live.session` materializes any
:class:`~repro.scenario.spec.ScenarioSpec` over loopback UDP (or a
multi-process node directory), and :mod:`repro.live.differential` runs
the same spec in both worlds and compares normalized delivery digests
under the invariant oracle.
"""

from repro.live.clock import LiveClock, LiveHandle
from repro.live.codec import (
    CodecError,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.live.differential import (
    DifferentialResult,
    delivery_digest,
    delivery_sets,
    run_differential,
)
from repro.live.runtime import Clock, Handle
from repro.live.session import LiveSession, run_spec_live
from repro.live.transport import LiveTransport

__all__ = [
    "Clock",
    "CodecError",
    "DifferentialResult",
    "Handle",
    "LiveClock",
    "LiveHandle",
    "LiveSession",
    "LiveTransport",
    "decode_frame",
    "decode_message",
    "delivery_digest",
    "delivery_sets",
    "encode_frame",
    "encode_message",
    "run_differential",
    "run_spec_live",
]
