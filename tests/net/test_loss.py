"""Unit tests for loss models."""

import copy
import random

import pytest

from repro.net.loss import (
    BernoulliLoss,
    BottleneckLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    ReceiverSetLoss,
    RegionalOutageLoss,
)
from repro.net.packet import KIND_CONTROL, KIND_DATA
from repro.workloads.mobility import DistanceLoss


@pytest.fixture
def rng():
    return random.Random(42)


class TestNoLoss:
    def test_never_drops(self, rng):
        model = NoLoss()
        assert not any(model.is_lost(0, i, "data", rng) for i in range(100))


class TestBernoulliLoss:
    def test_zero_probability_never_drops(self, rng):
        model = BernoulliLoss(0.0)
        assert not any(model.is_lost(0, i, "data", rng) for i in range(100))

    def test_one_probability_always_drops_data(self, rng):
        model = BernoulliLoss(1.0)
        assert all(model.is_lost(0, i, "data", rng) for i in range(100))

    def test_control_is_reliable_by_default(self, rng):
        """The paper's §4 assumption: requests/repairs are not lost."""
        model = BernoulliLoss(1.0)
        assert not model.is_lost(0, 1, "control", rng)

    def test_empirical_rate(self, rng):
        model = BernoulliLoss(0.3)
        drops = sum(model.is_lost(0, i, "data", rng) for i in range(10_000))
        assert 0.27 < drops / 10_000 < 0.33

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5)


class TestReceiverSetLoss:
    def test_only_listed_receivers_drop(self, rng):
        model = ReceiverSetLoss({3, 5})
        assert model.is_lost(0, 3, "data", rng)
        assert model.is_lost(0, 5, "data", rng)
        assert not model.is_lost(0, 4, "data", rng)

    def test_control_untouched(self, rng):
        model = ReceiverSetLoss({3})
        assert not model.is_lost(0, 3, "control", rng)


class TestGilbertElliott:
    def test_good_state_rarely_drops(self, rng):
        model = GilbertElliottLoss(p_good_to_bad=0.0, p_good=0.0)
        assert not any(model.is_lost(0, 1, "data", rng) for _ in range(100))

    def test_bursty_losses_cluster(self, rng):
        model = GilbertElliottLoss(
            p_good_to_bad=0.05, p_bad_to_good=0.2, p_good=0.0, p_bad=1.0
        )
        outcomes = [model.is_lost(0, 1, "data", rng) for _ in range(5_000)]
        losses = sum(outcomes)
        assert losses > 0
        # Burstiness: P(loss | previous loss) should far exceed the
        # marginal loss rate.
        follow = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
        conditional = follow / max(1, losses)
        marginal = losses / len(outcomes)
        assert conditional > marginal * 2

    def test_deterministic_under_a_fixed_seed(self):
        """Two models fed equally-seeded RNGs produce the identical
        drop sequence — the property scenario digests/caches rely on."""
        def sequence(seed):
            model = GilbertElliottLoss(
                p_good_to_bad=0.1, p_bad_to_good=0.3, p_good=0.05, p_bad=0.9
            )
            stream = random.Random(seed)
            return [model.is_lost(0, 1, "data", stream) for _ in range(300)]

        assert sequence(1234) == sequence(1234)
        assert sequence(1234) != sequence(4321)

    def test_links_have_independent_state(self, rng):
        model = GilbertElliottLoss(p_good_to_bad=1.0, p_bad_to_good=0.0,
                                   p_good=0.0, p_bad=1.0)
        assert model.is_lost(0, 1, "data", rng)  # link (0,1) now bad
        # A different link starts in its own good state but flips
        # immediately too (p_good_to_bad=1), so both drop; verify the
        # state dict tracks them separately.
        model.is_lost(0, 2, "data", rng)
        assert ((0, 1) in model._bad_state) and ((0, 2) in model._bad_state)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


class TestBottleneckLoss:
    def test_requires_clock_binding(self, rng):
        model = BottleneckLoss(capacity=100.0)
        with pytest.raises(RuntimeError, match="bind_clock"):
            model.is_lost(0, 1, "data", rng)

    def test_control_traffic_is_reliable(self, rng):
        model = BottleneckLoss(capacity=1.0)  # hopelessly overloaded
        assert not model.is_lost(0, 1, "control", rng)

    def test_under_capacity_never_drops(self, rng):
        clock = FakeClock()
        model = BottleneckLoss(capacity=100.0, window_ms=1_000.0)
        model.bind_clock(clock)
        # 50 attempts over a second: rate 50/s, half the capacity.
        drops = 0
        for index in range(50):
            clock.now = index * 20.0
            drops += model.is_lost(0, 1, "data", rng)
        assert drops == 0
        assert model.excess_ratio() == 0.0

    def test_overload_drops_the_excess_ratio(self, rng):
        clock = FakeClock()
        model = BottleneckLoss(capacity=100.0, window_ms=1_000.0)
        model.bind_clock(clock)
        # 400 attempts in one window: the rate ramps to 400/s, 4x
        # capacity, where the drop probability is 1 - 1/4 = 0.75.
        drops = 0
        for index in range(400):
            clock.now = index * 2.5
            drops += model.is_lost(0, 1, "data", rng)
        assert model.excess_ratio() == pytest.approx(0.75)
        # Averaged over the ramp the drop rate sits between the clean
        # start and the saturated end.
        assert 0.2 < drops / 400 < 0.75

    def test_window_slides_and_load_decays(self, rng):
        clock = FakeClock()
        model = BottleneckLoss(capacity=10.0, window_ms=100.0)
        model.bind_clock(clock)
        for index in range(50):
            clock.now = index * 1.0
            model.is_lost(0, 1, "data", rng)
        assert model.excess_ratio() > 0.0
        # A quiet period longer than the window forgets the burst.
        clock.now = 500.0
        model.is_lost(0, 1, "data", rng)
        assert model.current_rate() <= 10.0 * 2  # just this attempt
        assert model.excess_ratio() == 0.0

    def test_base_loss_floor_applies_below_capacity(self):
        clock = FakeClock()
        model = BottleneckLoss(capacity=10_000.0, window_ms=1_000.0,
                               base_loss=0.3)
        model.bind_clock(clock)
        stream = random.Random(9)
        drops = sum(
            model.is_lost(0, 1, "data", stream) for _ in range(2_000)
        )
        assert 0.25 < drops / 2_000 < 0.35

    def test_validation(self):
        with pytest.raises(ValueError):
            BottleneckLoss(capacity=0.0)
        with pytest.raises(ValueError):
            BottleneckLoss(capacity=10.0, window_ms=0.0)
        with pytest.raises(ValueError):
            BottleneckLoss(capacity=10.0, base_loss=1.5)


def _bottleneck_over_capacity():
    model = BottleneckLoss(capacity=1.0, window_ms=1_000.0, base_loss=0.5)
    model.bind_clock(FakeClock(10.0))
    for _ in range(5):
        model.is_lost(0, 1, KIND_DATA, random.Random(0))
    return model


#: Every model that declares it keeps some kind reliable, built in a
#: state where it does drop what it can.
NARROW = {
    NoLoss: NoLoss,
    BernoulliLoss: lambda: BernoulliLoss(0.5),
    ReceiverSetLoss: lambda: ReceiverSetLoss({1, 2}),
    BottleneckLoss: _bottleneck_over_capacity,
    GilbertElliottLoss: lambda: GilbertElliottLoss(p_good_to_bad=1.0, p_bad=1.0),
}
#: Models that may drop any kind: a partition severs control traffic,
#: and a distance model's base may be such a partition.
ANY_KIND = {RegionalOutageLoss, DistanceLoss}


def _repro_models():
    found, queue = set(), [LossModel]
    while queue:
        for model in queue.pop().__subclasses__():
            if model.__module__.startswith("repro.") and model not in found:
                found.add(model)
                queue.append(model)
    return found


class TestDropsDeclaration:
    """What ``dropped_kinds`` leaves out, ``is_lost`` never drops: the
    transport skips the call, so it must have been a ``False`` without a
    draw."""

    def test_every_model_is_declared_here(self):
        assert _repro_models() == set(NARROW) | ANY_KIND
        for model in ANY_KIND:
            assert model.dropped_kinds is LossModel.dropped_kinds
            assert LossModel.dropped_kinds == {KIND_DATA, KIND_CONTROL}

    def test_the_data_only_rule(self):
        assert NoLoss.dropped_kinds == frozenset()
        for model, build in NARROW.items():
            if model is not NoLoss:
                assert build().dropped_kinds == {KIND_DATA}

    @pytest.mark.parametrize("model, kind", [
        (model, kind) for model in sorted(NARROW, key=lambda model: model.__name__)
        for kind in (KIND_DATA, KIND_CONTROL) if kind not in NARROW[model]().dropped_kinds])
    def test_a_kind_it_cannot_drop_is_never_lost_nor_drawn_for(self, model, kind):
        instance = NARROW[model]()
        rng = random.Random(7)
        state, before = rng.getstate(), copy.deepcopy(self.state(instance))
        for src in range(4):
            for dst in range(4):
                assert instance.is_lost(src, dst, kind, rng) is False
        assert rng.getstate() == state
        assert self.state(instance) == before

    @staticmethod
    def state(instance):
        return {key: value for key, value in vars(instance).items() if key != "clock"}

