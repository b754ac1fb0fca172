"""Adaptive repair-hierarchy subsystem (makespan-aware routing).

The paper's protocol assumes a *fixed* region hierarchy; this package
makes it a live structure.  :class:`~repro.adapt.linkstate.LinkStateEstimator` passively
derives per region-pair link quality (EWMA loss + RTT, ETX-style cost)
from the trace records the protocol already emits — no new message
types.  :class:`~repro.adapt.optimizer.TreeOptimizer` periodically re-evaluates parent
assignments against a predicted-makespan objective and re-parents a
region only when the improvement clears a hysteresis threshold, with a
hard budget on re-parent events so maintenance stays bounded (the
ETX-thresholded update scheme of the MTP design cited in PAPERS.md).

Both pieces are constructed by the scenario layer only when
``ScenarioSpec.adapt`` is enabled, so default runs schedule no extra
events and every existing trace digest is unchanged.
"""
