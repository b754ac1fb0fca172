"""FEC-based repair subsystem (proactive/reactive erasure coding).

The paper's RRMP recovers every loss with a pull epidemic: each miss
costs at least one request/repair round trip, and a regional loss
costs a WAN round trip throttled by λ.  NORM-style *FEC-based repair*
is the standard complement: the sender appends ``r`` parity messages
to every block of ``k`` data messages, and a receiver holding any
``k`` of the ``k + r`` block shards reconstructs the rest locally —
no request, no timer, no WAN crossing.

The subsystem has three layers:

* :mod:`repro.fec.codec` — byte-level erasure codes (XOR single
  parity; systematic Vandermonde Reed-Solomon over GF(256));
* :mod:`repro.fec.encoder` — the sender pipeline that groups messages
  into blocks and emits :class:`~repro.protocol.messages.ParityMessage`
  objects proactively or on demand;
* :mod:`repro.fec.decoder` — the receiver-side block reassembly that
  fills gaps before (or instead of) pull recovery.

Wired into the protocol via
``FecSpec(mode=..., block_size=k, parity=r)``
(:class:`~repro.protocol.config.FecSpec`, a scenario's ``fec`` node);
parity messages flow through the member's regular
two-phase buffer policy, so long-term bufferers serve parity exactly
like data.
"""
