"""Measurement utilities (system S10 in DESIGN.md).

Descriptive statistics, step time series, buffer-occupancy probes
and plain-text table rendering used by the experiment harness.
"""
