"""Property-based round-trip tests for CongestionSpec serialization.

Any valid congestion node (and the bottleneck loss fields that ride
with the CC ablations) must survive JSON and pickle unchanged, with a
digest that moves iff the value does.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.spec import CongestionSpec, LossSpec, ScenarioSpec

rates = st.floats(min_value=0.1, max_value=10_000.0,
                  allow_nan=False, allow_infinity=False)
losses = st.floats(min_value=0.0, max_value=1.0,
                   allow_nan=False, allow_infinity=False)
target_losses = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                          allow_nan=False, allow_infinity=False)


@st.composite
def congestion_specs(draw):
    """Valid nodes only: construction checks the ranges, so ``parity_min``
    is >= 1 and never above ``parity_max``."""
    min_rate = draw(rates)
    parity_min = draw(st.one_of(st.none(), st.integers(1, 4)))
    parity_max = draw(st.one_of(
        st.none(), st.integers(1 if parity_min is None else parity_min, 8)))
    return CongestionSpec(
        controller=draw(st.sampled_from(["none", "tfmcc", "aimd"])),
        target_loss=draw(target_losses),
        min_rate=min_rate,
        max_rate=min_rate * draw(st.floats(min_value=1.0, max_value=100.0,
                                           allow_nan=False)),
        feedback_interval=draw(st.floats(min_value=1.0, max_value=1_000.0,
                                         allow_nan=False)),
        parity_min=parity_min,
        parity_max=parity_max,
    )


@st.composite
def bottleneck_loss_specs(draw):
    return LossSpec(
        kind="bottleneck",
        capacity=draw(st.floats(min_value=1.0, max_value=100_000.0,
                                allow_nan=False, allow_infinity=False)),
        window=draw(st.floats(min_value=1.0, max_value=5_000.0,
                              allow_nan=False, allow_infinity=False)),
        receiver_loss=draw(losses),
    )


@st.composite
def cc_scenario_specs(draw):
    return ScenarioSpec(
        name=draw(st.sampled_from(["prop-a", "prop-b"])),
        seed=draw(st.integers(0, 2**31 - 1)),
        congestion=draw(congestion_specs()),
        loss=draw(st.one_of(st.just(LossSpec()), bottleneck_loss_specs())),
    )


class TestCongestionSpecRoundTrip:
    @given(spec=cc_scenario_specs())
    @settings(max_examples=150, deadline=None)
    def test_json_round_trip_is_identity(self, spec):
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.congestion == spec.congestion
        assert restored.loss == spec.loss

    @given(spec=cc_scenario_specs())
    @settings(max_examples=100, deadline=None)
    def test_digest_survives_the_round_trip(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()).digest() == spec.digest()

    @given(spec=cc_scenario_specs())
    @settings(max_examples=50, deadline=None)
    def test_pickle_round_trip_is_identity(self, spec):
        assert pickle.loads(pickle.dumps(spec)) == spec

    @given(congestion=congestion_specs())
    @settings(max_examples=100, deadline=None)
    def test_default_congestion_node_is_omitted_others_kept(self, congestion):
        spec = ScenarioSpec(name="n", congestion=congestion)
        payload = spec.to_dict()
        if congestion == CongestionSpec():
            assert "congestion" not in payload
        else:
            assert payload["congestion"]["controller"] == congestion.controller

    @given(spec=cc_scenario_specs())
    @settings(max_examples=100, deadline=None)
    def test_enabled_tracks_controller(self, spec):
        assert spec.congestion.enabled == (spec.congestion.controller != "none")
