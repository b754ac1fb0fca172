"""Control-law tests: each controller driven by synthetic feedback traces.

Controllers are pure deterministic state machines, so every law is
checkable without a network: feed timestamped FeedbackReports and NACKs,
assert the rate trajectory.
"""

import pytest

from repro.cc.controller import (
    AimdController,
    TfmccController,
    controller_for,
    tcp_friendly_rate,
)
from repro.protocol.config import CongestionSpec
from repro.protocol.messages import FeedbackReport


def _config(**overrides):
    defaults = dict(controller="aimd", target_loss=0.05, min_rate=1.0,
                    max_rate=1000.0, feedback_interval=100.0)
    defaults.update(overrides)
    return CongestionSpec(**defaults)


def _report(receiver=1, loss=0.0, rtt=10.0):
    return FeedbackReport(receiver=receiver, loss_estimate=loss,
                          rtt_ms=rtt, max_seq=0, received=0)


class TestFactory:
    def test_dispatch(self):
        with pytest.raises(ValueError, match="'none'"):
            controller_for(_config(controller="none"))  # open loop: no controller
        assert isinstance(controller_for(_config(controller="aimd")),
                          AimdController)
        assert isinstance(controller_for(_config(controller="tfmcc")),
                          TfmccController)

    def test_initial_rate_override(self):
        cc = controller_for(_config(controller="aimd"), initial_rate=50.0)
        assert cc.rate == pytest.approx(50.0)

    def test_optimistic_start_at_ceiling(self):
        cc = controller_for(_config(controller="tfmcc", max_rate=200.0))
        assert cc.rate == pytest.approx(200.0)


class TestWindowing:
    def test_first_window_closes_only_after_interval(self):
        cc = AimdController(_config(), initial_rate=100.0)
        cc.on_feedback(0.0, _report(loss=0.5))
        cc.on_feedback(50.0, _report(loss=0.5))  # window still open
        assert cc.rate == pytest.approx(100.0)
        cc.on_feedback(101.0, _report(loss=0.5))  # closes the window
        assert cc.rate == pytest.approx(50.0)


class TestAimd:
    def test_multiplicative_decrease_on_loss(self):
        cc = AimdController(_config(), initial_rate=100.0)
        cc.on_feedback(0.0, _report(loss=0.2))
        cc.on_feedback(101.0, _report(loss=0.2))
        assert cc.rate == pytest.approx(50.0)

    def test_additive_increase_when_clean(self):
        cc = AimdController(_config(), initial_rate=100.0)
        cc.on_feedback(0.0, _report(loss=0.0))
        cc.on_feedback(101.0, _report(loss=0.0))
        assert cc.rate == pytest.approx(110.0)

    def test_nacks_alone_trigger_decrease(self):
        cc = AimdController(_config(), initial_rate=100.0)
        cc.on_nack(0.0, 1)
        cc.on_nack(101.0, 2)  # closes window with 1 nack inside
        assert cc.rate == pytest.approx(50.0)

    def test_rate_clamped_to_bounds(self):
        cc = AimdController(_config(min_rate=40.0, max_rate=120.0),
                            initial_rate=100.0)
        for t in (0.0, 101.0, 202.0, 303.0):
            cc.on_feedback(t, _report(loss=0.5))
        assert cc.rate == pytest.approx(40.0)  # floor, not 12.5
        clean = AimdController(_config(min_rate=40.0, max_rate=120.0),
                               initial_rate=115.0)
        for t in (0.0, 101.0, 202.0):
            clean.on_feedback(t, _report(loss=0.0))
        assert clean.rate == pytest.approx(120.0)  # ceiling, not 135

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AimdController(_config(), additive_increase=0.0)
        with pytest.raises(ValueError):
            AimdController(_config(), decrease_factor=1.0)


class TestTcpFriendlyRate:
    def test_zero_loss_is_unlimited(self):
        assert tcp_friendly_rate(0.0, 10.0) == float("inf")

    def test_monotone_decreasing_in_loss(self):
        rates = [tcp_friendly_rate(p, 10.0) for p in (0.01, 0.05, 0.2, 0.5)]
        assert rates == sorted(rates, reverse=True)

    def test_slower_rtt_means_lower_rate(self):
        assert tcp_friendly_rate(0.05, 100.0) < tcp_friendly_rate(0.05, 10.0)


class TestTfmcc:
    def test_multiplicative_probe_while_clean(self):
        cc = TfmccController(_config(controller="tfmcc"), initial_rate=100.0)
        cc.on_feedback(0.0, _report(loss=0.0))
        cc.on_feedback(101.0, _report(loss=0.0))
        assert cc.rate == pytest.approx(130.0)

    def test_equation_rate_from_worst_receiver(self):
        cc = TfmccController(_config(controller="tfmcc", target_loss=0.02),
                             initial_rate=500.0)
        cc.on_feedback(0.0, _report(receiver=1, loss=0.30, rtt=20.0))
        cc.on_feedback(101.0, _report(receiver=2, loss=0.0))
        expected = tcp_friendly_rate(0.30 - 0.02, 20.0)
        assert cc.rate == pytest.approx(expected)

    def test_worst_receiver_is_highest_loss_then_slowest(self):
        cc = TfmccController(_config(controller="tfmcc"), initial_rate=100.0)
        cc.on_feedback(0.0, _report(receiver=1, loss=0.10, rtt=5.0))
        cc.on_feedback(1.0, _report(receiver=2, loss=0.30, rtt=5.0))
        cc.on_feedback(2.0, _report(receiver=3, loss=0.30, rtt=50.0))
        worst = cc.worst_receiver()
        assert (worst.loss, worst.rtt_ms) == (0.30, 50.0)

    def test_nacks_without_loss_hold_the_rate(self):
        cc = TfmccController(_config(controller="tfmcc"), initial_rate=100.0)
        cc.on_nack(0.0, 1)
        cc.on_feedback(50.0, _report(loss=0.0))
        cc.on_feedback(101.0, _report(loss=0.0))  # closes: 1 nack, no loss
        assert cc.rate == pytest.approx(100.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TfmccController(_config(controller="tfmcc"), increase_factor=1.0)


class TestParityBudget:
    def test_disabled_without_parity_max(self):
        cc = AimdController(_config(parity_max=None), initial_rate=100.0)
        cc.on_feedback(0.0, _report(loss=0.5))
        assert cc.parity_budget(8, 2) == 2

    def test_scales_with_worst_loss(self):
        cc = AimdController(_config(parity_min=1, parity_max=6),
                            initial_rate=100.0)
        assert cc.parity_budget(8, 2) == 1  # no loss yet: the floor
        cc.on_feedback(0.0, _report(loss=0.25))
        # ceil(0.25 * 8) + 1 = 3 messages of parity
        assert cc.parity_budget(8, 2) == 3

    def test_clamped_to_parity_max_and_gf256(self):
        cc = AimdController(_config(parity_min=1, parity_max=100),
                            initial_rate=100.0)
        cc.on_feedback(0.0, _report(loss=1.0))
        assert cc.parity_budget(250, 2) == 6  # 256 - block_size
