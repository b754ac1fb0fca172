"""Tests for step time series."""

import pytest

from repro.metrics.timeseries import StepSeries


class TestStepSeries:
    def test_value_before_first_step_is_initial(self):
        series = StepSeries(initial=5.0)
        assert series.value_at(0.0) == 5.0

    def test_right_continuous_steps(self):
        series = StepSeries()
        series.record(10.0, 3.0)
        assert series.value_at(9.999) == 0.0
        assert series.value_at(10.0) == 3.0
        assert series.value_at(11.0) == 3.0

    def test_same_time_overwrites(self):
        series = StepSeries()
        series.record(1.0, 1.0)
        series.record(1.0, 2.0)
        assert series.value_at(1.0) == 2.0
        assert len(series) == 1

    def test_out_of_order_rejected(self):
        series = StepSeries()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 2.0)

    def test_sample_grid(self):
        series = StepSeries()
        series.record(0.0, 1.0)
        series.record(10.0, 2.0)
        points = series.sample(0.0, 20.0, 5.0)
        assert points == [(0.0, 1.0), (5.0, 1.0), (10.0, 2.0), (15.0, 2.0), (20.0, 2.0)]

    def test_sample_requires_positive_dt(self):
        with pytest.raises(ValueError):
            StepSeries().sample(0.0, 1.0, 0.0)

    def test_last_time(self):
        series = StepSeries()
        assert series.last_time is None
        series.record(3.0, 7.0)
        assert series.last_time == 3.0
