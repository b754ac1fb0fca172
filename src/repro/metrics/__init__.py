"""Measurement utilities (system S10 in DESIGN.md).

Descriptive statistics, step time series, buffer-occupancy probes
and plain-text table rendering used by the experiment harness.
"""

from repro.metrics.fec import FecReport, summarize_fec
from repro.metrics.makespan import MakespanTracker
from repro.metrics.occupancy import OccupancyProbe
from repro.metrics.rebuffer import PlayoutClock, RebufferTracker, replay_rebuffer
from repro.metrics.report import SeriesTable, format_cell, render_table
from repro.metrics.runreport import RunReport
from repro.metrics.stats import Summary, mean, percentile, stdev
from repro.metrics.timeseries import StepSeries

__all__ = [
    "FecReport",
    "MakespanTracker",
    "OccupancyProbe",
    "PlayoutClock",
    "RebufferTracker",
    "RunReport",
    "SeriesTable",
    "StepSeries",
    "Summary",
    "format_cell",
    "mean",
    "percentile",
    "render_table",
    "replay_rebuffer",
    "stdev",
    "summarize_fec",
]
