"""Tests for buffer-occupancy probes."""

import pytest

from repro.metrics.occupancy import OccupancyProbe


class TestOccupancyProbe:
    def test_samples_on_schedule(self, sim):
        value = [0.0]
        probe = OccupancyProbe(sim, lambda: value[0], period=10.0)
        sim.at(15.0, lambda: value.__setitem__(0, 5.0))
        sim.run(until=40.0)
        probe.stop()
        series = probe.series
        assert series.value_at(10.0) == 0.0
        assert series.value_at(20.0) == 5.0

    def test_average(self, sim):
        value = [2.0]
        probe = OccupancyProbe(sim, lambda: value[0], period=10.0)
        sim.run(until=100.0)
        probe.stop()
        assert probe.average() == pytest.approx(2.0)

    def test_stop_halts_sampling(self, sim):
        count = [0]

        def sample():
            count[0] += 1
            return 0.0

        probe = OccupancyProbe(sim, sample, period=10.0)
        sim.at(35.0, probe.stop)
        sim.run(until=200.0)
        assert count[0] == 4  # t = 0, 10, 20, 30
