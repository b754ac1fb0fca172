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
