"""CongestionDriver pacing tests against stub senders and the real stack."""

import pytest

from repro.cc.controller import AimdController
from repro.cc.driver import CongestionDriver
from repro.protocol.config import CongestionSpec, FecSpec
from repro.protocol.messages import FeedbackReport
from repro.sim.engine import Simulator
from repro.workloads.traffic import UniformStream


class StubMember:
    def __init__(self):
        self.alive = True
        self.extra_handlers = {}
        self.repair_interest_hook = None
        self.fec_spec = FecSpec(parity=2)


class StubEncoder:
    def __init__(self, block_size=8, parity=2):
        self.block_size = block_size
        self.parity = parity


class OpenLoop:
    """A controller that never defers a send (runs install no driver
    for ``controller="none"``; these tests pace the driver itself)."""

    name = "open"

    def on_send(self, now):
        pass

    def on_feedback(self, now, report):
        pass

    def on_nack(self, now, seq):
        pass

    def send_credit(self, now):
        return float("-inf")

    def interval(self):
        return 0.0

    def parity_budget(self, block_size, base_parity):
        return base_parity


class StubSender:
    def __init__(self, fec=None):
        self.member = StubMember()
        self.fec = fec
        self.max_seq = 0
        self.send_times = []

    def multicast(self):
        self.max_seq += 1


def _config(**overrides):
    defaults = dict(controller="aimd", target_loss=0.05, min_rate=10.0,
                    max_rate=100.0, feedback_interval=100.0)
    defaults.update(overrides)
    return CongestionSpec(**defaults)


def _drive(controller, generator, fec=None):
    sim = Simulator()
    sender = StubSender(fec=fec)
    original_multicast = sender.multicast

    def recording_multicast():
        sender.send_times.append(sim.now)
        original_multicast()

    sender.multicast = recording_multicast
    driver = CongestionDriver(sim, sender, generator, controller)
    driver.start()
    sim.run()
    return sim, sender, driver


class TestOpenLoopPacing:
    def test_open_loop_emits_the_arrival_schedule_exactly(self):
        _sim, sender, driver = _drive(
            OpenLoop(), UniformStream(count=4, interval=10.0, start=5.0))
        assert sender.send_times == [5.0, 15.0, 25.0, 35.0]
        assert driver.sent == 4
        assert driver.done


class TestAdaptivePacing:
    def test_credit_throttles_fast_arrivals(self):
        # Arrivals every 2 ms, controller capped at 100 msgs/s (10 ms):
        # the first send is free, the rest queue behind the credit.
        controller = AimdController(_config(), initial_rate=100.0)
        _sim, sender, driver = _drive(
            controller, UniformStream(count=4, interval=2.0, start=0.0))
        assert sender.send_times == [0.0, 10.0, 20.0, 30.0]
        assert driver.sent == 4

    def test_slow_arrivals_pass_untouched(self):
        controller = AimdController(_config(), initial_rate=100.0)
        _sim, sender, _driver = _drive(
            controller, UniformStream(count=3, interval=50.0, start=0.0))
        assert sender.send_times == [0.0, 50.0, 100.0]

    def test_stop_halts_the_loop(self):
        sim = Simulator()
        sender = StubSender()
        driver = CongestionDriver(
            sim, sender, UniformStream(count=100, interval=10.0), OpenLoop())
        driver.start()
        sim.at(25.0, driver.stop)
        sim.run()
        assert sender.max_seq == 3  # sends at 0, 10, 20; 30+ suppressed

    def test_on_complete_fires_once_when_stream_drains(self):
        completions = []
        sim = Simulator()
        sender = StubSender()
        driver = CongestionDriver(
            sim, sender, UniformStream(count=2, interval=10.0), OpenLoop(),
            on_complete=completions.append)
        driver.start()
        sim.run()
        assert driver.done
        assert len(completions) == 1


class TestFeedbackPlumbing:
    def test_feedback_handler_reaches_controller(self):
        controller = AimdController(_config(), initial_rate=100.0)
        sim = Simulator()
        sender = StubSender()
        driver = CongestionDriver(
            sim, sender, UniformStream(count=1, interval=10.0), controller)
        driver.start()
        handler = sender.member.extra_handlers[FeedbackReport]
        handler(FeedbackReport(receiver=7, loss_estimate=0.3, rtt_ms=12.0,
                               max_seq=5, received=3))
        assert 7 in controller.receivers
        assert controller.receivers[7].loss == pytest.approx(0.3)

    def test_nack_hook_chains_previous_hook(self):
        controller = AimdController(_config(), initial_rate=100.0)
        sim = Simulator()
        sender = StubSender()
        seen = []
        sender.member.repair_interest_hook = seen.append
        driver = CongestionDriver(
            sim, sender, UniformStream(count=1, interval=10.0), controller)
        driver.start()
        sender.member.repair_interest_hook(42)
        assert seen == [42]  # the pre-existing (reactive FEC) hook fired
        controller.on_nack(200.0, 43)  # and the controller counts NACKs
        assert controller._window_nacks >= 1


class TestAdaptiveFec:
    def test_parity_budget_applied_before_send(self):
        controller = AimdController(
            _config(parity_min=1, parity_max=6), initial_rate=100.0)
        controller.on_feedback(0.0, FeedbackReport(
            receiver=1, loss_estimate=0.25, rtt_ms=10.0, max_seq=0, received=0))
        encoder = StubEncoder(block_size=8, parity=2)
        _sim, _sender, _driver = _drive(
            controller, UniformStream(count=1, interval=10.0), fec=encoder)
        assert encoder.parity == 3  # ceil(0.25 * 8) + 1

    def test_no_fec_encoder_is_fine(self):
        controller = AimdController(
            _config(parity_min=1, parity_max=6), initial_rate=100.0)
        _sim, sender, driver = _drive(
            controller, UniformStream(count=2, interval=10.0), fec=None)
        assert driver.sent == 2
