"""Workloads: traffic generators and mobility (system S11 in DESIGN.md)."""
