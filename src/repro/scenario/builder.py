"""Fluent construction of :class:`~repro.scenario.spec.ScenarioSpec`.

The builder is sugar over the frozen spec tree: every method replaces
one sub-spec and returns ``self``, so a complete scenario reads as one
chain::

    from repro.scenario.builder import scenario

    built = (
        scenario("wan-demo", seed=7)
        .regions(5, 100)
        .poisson(rate=2.0)
        .loss(p=0.01)
        .policy("two_phase", c=3.0)
        .measure(horizon=2_000.0)
        .build()
    )

A node verb takes the node's own field names as keywords and restates
nothing: each default, type and range check lives on the spec
dataclass.  Verbs that select a family (``uniform``, ``loss``,
``churn``, ``congestion``, ...) start that node afresh from its
defaults; ``latency``, ``policy``, ``protocol`` and ``measure`` change
only the fields they are given.  The shape helpers (``regions``,
``chain``, ``star``, ``tree``, ``multicast_once``) compute field values
instead.

A verb refuses what its node refuses.  The rules that tie nodes
together (a ``poisson`` stream needs a run bound, say) are
:class:`ScenarioSpec`'s and are checked when ``spec()`` makes the
value, so verbs may come in any order.

``spec()`` returns the immutable value (serialize it, ship it to a
worker); ``build()`` materializes it; ``run()`` builds and runs it.
"""

from __future__ import annotations

from dataclasses import fields as spec_fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.scenario.materialize import BuiltScenario
from repro.scenario.spec import ScenarioSpec


class ScenarioBuilder:
    """Accumulates a :class:`ScenarioSpec` through chained calls."""

    def __init__(self, *args: Any, **fields: Any) -> None:
        spec = ScenarioSpec(*args, **fields)
        self._fields: Dict[str, Any] = {
            spec_field.name: getattr(spec, spec_field.name) for spec_field in spec_fields(spec)
        }

    def _update(self, node: str, **fields: Any) -> "ScenarioBuilder":
        """Change *fields* of the current *node*, keeping the rest."""
        self._fields[node] = replace(self._fields[node], **fields)
        return self

    def _fresh(self, node: str, **fields: Any) -> "ScenarioBuilder":
        """Replace *node* with a new one: its defaults plus *fields*."""
        self._fields[node] = type(self._fields[node])(**fields)
        return self

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def single_region(self, n: int) -> "ScenarioBuilder":
        """One region of *n* members (the paper's §4 setting)."""
        return self._update("topology", kind="single_region", n=n)

    def regions(self, count: int, size: int) -> "ScenarioBuilder":
        """*count* equal regions of *size*: a root plus ``count - 1``
        children hanging off it (the north-star multi-region layout)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        return self._update("topology", kind="star", n=size, sizes=(size,) * (count - 1))

    def chain(self, *sizes: int) -> "ScenarioBuilder":
        """Regions in a line, region *i* parenting region *i + 1*."""
        return self._update("topology", kind="chain", sizes=sizes)

    def star(self, root: int, *leaves: int) -> "ScenarioBuilder":
        """A root region of *root* members with one child per leaf size."""
        return self._update("topology", kind="star", n=root, sizes=leaves)

    def tree(self, depth: int, fanout: int, region_size: int) -> "ScenarioBuilder":
        """A balanced hierarchy: *fanout* children per region, *depth* levels."""
        return self._update(
            "topology", kind="balanced_tree", depth=depth, fanout=fanout, n=region_size
        )

    def latency(self, **fields: Any) -> "ScenarioBuilder":
        """One-way delays (ms): the ``*_one_way`` fields of :class:`TopologySpec`."""
        return self._update("topology", **fields)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def uniform(self, count: int, interval: float, **fields: Any) -> "ScenarioBuilder":
        """*count* multicasts at a fixed *interval* (from ``start``)."""
        return self._fresh("traffic", kind="uniform", count=count, interval=interval,
                           **fields)

    def multicast_once(self, **fields: Any) -> "ScenarioBuilder":
        """A single multicast (at ``start``)."""
        return self._fresh("traffic", kind="uniform", count=1, interval=1.0, **fields)

    def poisson(self, rate: float, **fields: Any) -> "ScenarioBuilder":
        """A Poisson stream of *rate* msgs/ms; ``duration`` 0 means
        "until the measurement horizon"."""
        return self._fresh("traffic", kind="poisson", rate=rate, **fields)

    def bursts(self, *bursts: Tuple[float, int]) -> "ScenarioBuilder":
        """Explicit ``(time, size)`` bursts of back-to-back sends."""
        return self._fresh("traffic", kind="burst", bursts=bursts)

    def ramp(self, count: int, initial_interval: float, final_interval: float,
             **fields: Any) -> "ScenarioBuilder":
        """A linearly accelerating stream (overload onset); see
        :class:`repro.workloads.traffic.RampStream`."""
        return self._fresh("traffic", kind="ramp", count=count,
                           initial_interval=initial_interval,
                           final_interval=final_interval, **fields)

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def loss(self, p: float) -> "ScenarioBuilder":
        """Independent per-receiver loss probability *p* at multicast time."""
        return self._fresh("loss", kind="bernoulli", p=p)

    def fixed_holders(self, k: int) -> "ScenarioBuilder":
        """Each multicast reaches exactly *k* uniformly-chosen members."""
        return self._fresh("loss", kind="fixed_holders", k=k)

    def regional_loss(self, region_loss: float, **fields: Any) -> "ScenarioBuilder":
        """Whole regions miss with probability *region_loss* (``region_correlated``)."""
        return self._fresh("loss", kind="region_correlated", region_loss=region_loss,
                           **fields)

    def gilbert_elliott(self, **fields: Any) -> "ScenarioBuilder":
        """Bursty two-state link loss on every data packet, repairs included."""
        return self._fresh("loss", kind="gilbert_elliott", **fields)

    def outage(self, **fields: Any) -> "ScenarioBuilder":
        """A whole-region partition that heals (``outage_*`` fields)."""
        return self._fresh("loss", kind="outage", **fields)

    def bottleneck(self, **fields: Any) -> "ScenarioBuilder":
        """A shared link of ``capacity`` deliveries/s whose loss answers to load."""
        return self._fresh("loss", kind="bottleneck", **fields)

    # ------------------------------------------------------------------
    # Policy, protocol, FEC, churn
    # ------------------------------------------------------------------
    def policy(self, kind: Optional[str] = None, **fields: Any) -> "ScenarioBuilder":
        """Select the buffer-management family and/or its knobs.

        Omitting *kind* keeps the currently selected family, so
        ``.policy(c=4.0)`` tweaks one knob without resetting an earlier
        ``.policy("fixed_time", ...)`` choice.
        """
        if kind is not None:
            fields["kind"] = kind
        return self._update("policy", **fields)

    def protocol(self, **fields: Any) -> "ScenarioBuilder":
        """Protocol knobs of :class:`PolicySpec` (λ, sessions, give-up deadline)."""
        return self._update("policy", **fields)

    def fec(self, mode: str, **fields: Any) -> "ScenarioBuilder":
        """Erasure-coded repair: ``proactive``/``reactive``/``off``."""
        return self._fresh("fec", mode=mode, **fields)

    def churn(self, **fields: Any) -> "ScenarioBuilder":
        """Poisson membership churn (events/ms; ``duration`` 0 = horizon)."""
        return self._fresh("churn", kind="random", **fields)

    def congestion(self, controller: str, **fields: Any) -> "ScenarioBuilder":
        """Congestion control: ``none``/``tfmcc``/``aimd`` (rates msgs/s)."""
        return self._fresh("congestion", controller=controller, **fields)

    def adaptive(self, **fields: Any) -> "ScenarioBuilder":
        """Adaptive repair hierarchy (:mod:`repro.adapt`, passive mode)."""
        return self._fresh("adapt", mode="passive", **fields)

    def mobility(self, **fields: Any) -> "ScenarioBuilder":
        """Waypoint mobility with §3.2 handoffs (:class:`MobilitySpec`)."""
        return self._fresh("mobility", kind="waypoint", **fields)

    def playout(self, **fields: Any) -> "ScenarioBuilder":
        """CBR playback deadlines scored as rebuffers (:class:`PlayoutSpec`)."""
        return self._fresh("playout", kind="cbr", **fields)

    # ------------------------------------------------------------------
    # Measurement & identity
    # ------------------------------------------------------------------
    def measure(self, **fields: Any) -> "ScenarioBuilder":
        """Run bound, probes, trace retention, ``oracle`` (:class:`MeasurementSpec`)."""
        return self._update("measurement", **fields)

    def describe(self, text: str) -> "ScenarioBuilder":
        """Attach a one-line human description."""
        self._fields["description"] = text
        return self

    # ------------------------------------------------------------------
    # Terminals
    # ------------------------------------------------------------------
    def spec(self) -> ScenarioSpec:
        """The immutable spec value accumulated so far."""
        return ScenarioSpec(**self._fields)

    def build(self) -> BuiltScenario:
        """Materialize: simulation built, traffic and churn scheduled."""
        return self.spec().build()

    def run(self) -> BuiltScenario:
        """Build and run to the measurement end."""
        return self.spec().run()


def scenario(*args: Any, **fields: Any) -> ScenarioBuilder:
    """Start a fluent scenario definition from :class:`ScenarioSpec`'s
    leading fields: ``scenario("name", seed=7)``."""
    return ScenarioBuilder(*args, **fields)
