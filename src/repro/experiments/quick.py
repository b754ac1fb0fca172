"""The single source of truth for reduced-cost experiment parameters.

``rrmp run --quick``, ``rrmp all --quick``, the
smoke tests and CI all read this table, so the quick path cannot drift
between entry points.  Every registered experiment id must have an
entry (enforced by ``tests/experiments/test_cli.py``).
"""

from __future__ import annotations

from typing import Dict

#: Reduced-repetition overrides that make the complete suite finish in
#: seconds instead of minutes.
QUICK_PARAMS: Dict[str, Dict[str, object]] = {
    "fig3": {"trials": 2_000},
    "fig4": {"trials": 2_000},
    "fig6": {"seeds": 5},
    "fig7": {},
    "fig8": {"seeds": 20},
    "fig9": {"ns": (100, 200, 400, 700, 1000), "seeds": 10},
    "ablation_c_tradeoff": {"seeds": 10},
    "ablation_lambda": {"seeds": 10},
    "ablation_search_vs_multicast": {"seeds": 30},
    "ablation_policies": {"seeds": 1, "messages": 15},
    "ablation_hash_vs_random": {"seeds": 15},
    "ablation_idle_threshold": {"seeds": 8},
    "ablation_churn_handoff": {"seeds": 10},
    "ablation_scaling": {"ns": (25, 50, 100, 200), "seeds": 4},
    "ablation_fec": {"points": ((4, 1), (8, 2)), "loss_rates": (0.3,), "seeds": 3},
    "ablation_congestion": {"loads": (0.5, 2.0), "seeds": 2},
    "ablation_adaptive_tree": {"seeds": 2},
    "ablation_workloads": {"seeds": 2},
}


def quick_params_for(experiment_id: str) -> Dict[str, object]:
    """The quick overrides for one experiment (a fresh copy)."""
    return dict(QUICK_PARAMS.get(experiment_id, {}))
