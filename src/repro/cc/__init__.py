"""Congestion control for the RRMP sender (closed-loop rate adaptation).

The paper's buffer-quota argument (§3.2: ~C long-term copies per region
suffice) holds only while senders do not outrun the recovery machinery;
the ``overload_onset`` scenario documents the collapse when they do.
This package closes the loop, in the spirit of NORM's TCP-friendly
multicast congestion control (TFMCC):

* :mod:`repro.cc.controller` — the
  :class:`~repro.cc.controller.CongestionController` protocol and its two implementations, one per
  ``CongestionSpec.controller`` value other than ``"none"``:
  :class:`~repro.cc.controller.TfmccController` (equation-based rate from the worst
  receiver's loss/RTT feedback) and
  :class:`~repro.cc.controller.AimdController`
  (additive-increase / multiplicative-decrease baseline).  ``"none"``
  is the open-loop sender: no controller and no driver, the traffic
  generator's precomputed schedule, byte-identical to the historical
  sender;
* :mod:`repro.cc.feedback` — receiver-side periodic
  :class:`~repro.protocol.messages.FeedbackReport` unicasts back to the
  sender (armed only when a controller is configured);
* :mod:`repro.cc.driver` — :class:`~repro.cc.driver.CongestionDriver`, the clock-driven
  send loop pulling arrivals from a
  :class:`~repro.workloads.traffic.TrafficGenerator` under controller
  credit, plus sender-side feedback/NACK plumbing and adaptive FEC
  parity shifting;
* :mod:`repro.cc.fairness` — a shared-bottleneck duel between two
  competing controllers with Jain's fairness index.

The same driver runs under the simulator and the live asyncio backend
(both satisfy the ``now``/``at`` clock surface).
"""
