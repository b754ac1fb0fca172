"""Network substrate (system S2 in DESIGN.md).

Regions and the error-recovery hierarchy (:mod:`repro.net.topology`),
one-way latency models (:mod:`repro.net.latency`), loss models
(:mod:`repro.net.loss`), the packet-level transport
(:mod:`repro.net.transport`) and IP-multicast outcome models
(:mod:`repro.net.ipmulticast`).
"""
