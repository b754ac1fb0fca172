"""Experiment harness (system S12 in DESIGN.md).

One module per paper figure (fig3, fig4, fig6-fig9), one per ablation,
and a registry keyed by experiment id, which the ``rrmp`` command line
(:mod:`repro.cli`) runs.
"""

from repro.experiments.ablation_c import run_c_tradeoff
from repro.experiments.ablation_churn import run_churn_handoff
from repro.experiments.ablation_hash import run_hash_vs_random
from repro.experiments.ablation_idle import run_idle_threshold
from repro.experiments.ablation_lambda import run_lambda_sweep
from repro.experiments.ablation_policies import run_policy_comparison
from repro.experiments.ablation_scaling import run_scaling
from repro.experiments.ablation_search_storm import run_search_vs_multicast
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.registry import (
    EXPERIMENTS,
    Experiment,
    experiment_ids,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "experiment_ids",
    "run_c_tradeoff",
    "run_churn_handoff",
    "run_experiment",
    "run_fig3",
    "run_fig4",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_hash_vs_random",
    "run_idle_threshold",
    "run_lambda_sweep",
    "run_policy_comparison",
    "run_scaling",
    "run_search_vs_multicast",
]
