"""Experiment harness (system S12 in DESIGN.md).

One module per paper figure (fig3, fig4, fig6-fig9), one per ablation,
and a registry keyed by experiment id, which the ``rrmp`` command line
(:mod:`repro.cli`) runs.
"""

# benchmarks/ledger/workloads.py imports EXPERIMENTS from this package.
from repro.experiments.registry import EXPERIMENTS  # noqa: F401
