"""The built-in scenario library: the §4 workload factories and the
named-scenario catalogue.

* **Parameterized spec factories** (``initial_holders_spec``,
  ``search_spec``, ``scale_spec``) — the declarative form of the
  paper's §4 workloads: the figure experiments call
  ``initial_holders_spec(...).run()`` / ``search_spec(...).run()`` and
  read the result off :class:`~repro.scenario.materialize.BuiltScenario`,
  and the catalogue's defaults are their fixed points.
* **The catalogue** — one tuple of :class:`~repro.scenario.spec.ScenarioSpec`
  values per engine tier, each keyed by its own ``name`` and described
  by its own ``description``; every CLI subcommand (``scenarios``,
  ``validate``, ``live``) resolves names in it through
  :func:`resolve_spec`.  Beyond the three §4 workloads, the object tier
  holds the configurations the related work motivates: bursty
  Gilbert–Elliott WAN links (Seok & Turletti's 802.11 setting), a
  linearly accelerating overload-onset stream, grid-style heterogeneous
  region sizes (Hudzia & Petiton), and a flash-crowd join storm.  The
  flat tier is the ``scale_spec`` shape at sizes only the numpy engine
  exists for: :func:`scenario_names` leaves it out by default, which
  keeps it out of the golden-digest iteration, and ``scenarios run``
  executes it on :func:`repro.scale.engine.run_flat`.

Specs are frozen values, so a lookup hands out the catalogue's own
object; ``spec.with_(seed=...)`` makes a changed copy.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.scenario.builder import scenario
from repro.scenario.spec import (
    LossSpec,
    MeasurementSpec,
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
)


# ----------------------------------------------------------------------
# Parameterized §4 workload specs
# ----------------------------------------------------------------------
def initial_holders_spec(
    n: int,
    k: int,
    seed: int = 0,
    idle_threshold: float = 40.0,
    long_term_c: float = 0.0,
    rtt: float = 10.0,
    run_for: Optional[float] = None,
    max_recovery_time: Optional[float] = 2_000.0,
) -> ScenarioSpec:
    """The Figure 6/7 workload: *k* of *n* members hold a fresh message,
    everyone else detects the loss simultaneously at t = 0."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n], got k={k}, n={n}")
    return ScenarioSpec(
        name="initial_holders",
        seed=seed,
        description="Fig 6/7: k initial holders, feedback-based buffering",
        topology=TopologySpec(kind="single_region", n=n, intra_one_way=rtt / 2.0),
        traffic=TrafficSpec(kind="detect_all", holders=k),
        policy=PolicySpec(
            idle_threshold=idle_threshold,
            c=long_term_c,
            session_interval=None,
            max_recovery_time=max_recovery_time,
        ),
        measurement=MeasurementSpec(
            duration=run_for, drain=run_for is None
        ),
    )


def search_spec(
    n: int,
    bufferers: int,
    seed: int = 0,
    intra_one_way: float = 5.0,
    inter_one_way: float = 500.0,
    horizon: float = 2_000.0,
) -> ScenarioSpec:
    """The Figure 8/9 workload: *bufferers* long-term holders in an
    *n*-member region, one downstream requester searching for them."""
    return ScenarioSpec(
        name="search",
        seed=seed,
        description="Fig 8/9: randomized bufferer search from downstream",
        topology=TopologySpec(
            kind="chain", sizes=(n, 1),
            intra_one_way=intra_one_way, inter_one_way=inter_one_way,
        ),
        traffic=TrafficSpec(kind="search_probe", bufferers=bufferers),
        policy=PolicySpec(session_interval=None, remote_lambda=1.0),
        measurement=MeasurementSpec(duration=horizon),
    )


def scale_spec(
    regions: int = 10,
    members_per_region: int = 100,
    messages: int = 20,
    send_interval: float = 25.0,
    loss_rate: float = 0.05,
    seed: int = 0,
    intra_one_way: float = 5.0,
    inter_one_way: float = 50.0,
    horizon: float = 3_000.0,
    max_recovery_time: float = 2_000.0,
) -> ScenarioSpec:
    """The north-star stress workload: a big lossy multi-region group."""
    if regions < 1:
        raise ValueError(f"regions must be >= 1, got {regions}")
    if max_recovery_time >= horizon:
        raise ValueError(
            "max_recovery_time must be shorter than the horizon, or give-ups "
            f"can never be observed (got {max_recovery_time} >= {horizon})"
        )
    return ScenarioSpec(
        name="scale",
        seed=seed,
        description="North-star stress: 10x100 members, lossy stream",
        topology=TopologySpec(
            kind="star",
            n=members_per_region,
            sizes=tuple([members_per_region] * (regions - 1)),
            intra_one_way=intra_one_way,
            inter_one_way=inter_one_way,
        ),
        traffic=TrafficSpec(
            kind="uniform", count=messages, interval=send_interval, start=1.0
        ),
        loss=LossSpec(kind="bernoulli", p=loss_rate),
        policy=PolicySpec(max_recovery_time=max_recovery_time),
        measurement=MeasurementSpec(duration=horizon),
    )


# ----------------------------------------------------------------------
# The catalogue
# ----------------------------------------------------------------------
#: The object-engine tier, in listing order: the golden-digest
#: catalogue that tests and the perf ledger iterate exhaustively.
OBJECT_SCENARIOS: Tuple[ScenarioSpec, ...] = (
    initial_holders_spec(n=100, k=10),
    search_spec(n=100, bufferers=10),
    scale_spec(),
    scenario("wan_burst_loss")
    .describe("bursty two-state link loss; repairs drop too")
    .chain(20, 20)
    .latency(intra_one_way=5.0, inter_one_way=40.0)
    .uniform(30, 10.0, start=1.0)
    .gilbert_elliott(p_good_to_bad=0.02, p_bad_to_good=0.25, p_bad=0.8)
    .protocol(remote_lambda=2.0, max_recovery_time=1_500.0)
    .measure(horizon=2_500.0)
    .spec(),
    scenario("overload_onset")
    .describe("linearly accelerating stream into a lossy region")
    .single_region(50)
    .ramp(40, initial_interval=25.0, final_interval=2.5, start=1.0)
    .loss(p=0.10)
    .protocol(max_recovery_time=1_500.0)
    .measure(horizon=2_500.0)
    .spec(),
    scenario("overload_onset_cc")
    .describe("accelerating stream, but the sender yields to feedback")
    .single_region(50)
    .ramp(40, initial_interval=25.0, final_interval=2.5, start=1.0)
    .loss(p=0.10)
    .congestion("tfmcc", target_loss=0.02, min_rate=5.0,
                max_rate=400.0, feedback_interval=100.0)
    .protocol(max_recovery_time=1_500.0)
    .measure(horizon=2_500.0)
    .spec(),
    scenario("heterogeneous_regions")
    .describe("50/12/4-member chain; whole regions miss messages")
    .chain(50, 12, 4)
    .latency(intra_one_way=5.0, inter_one_way=80.0)
    .uniform(20, 25.0, start=1.0)
    .regional_loss(region_loss=0.2, receiver_loss=0.05)
    .protocol(remote_lambda=2.0, max_recovery_time=2_000.0)
    .measure(horizon=3_000.0)
    .spec(),
    scenario("flash_crowd")
    .describe("high join rate plus background leaves under load")
    .regions(3, 20)
    .uniform(24, 20.0, start=1.0)
    .loss(p=0.05)
    .churn(join_rate=0.05, leave_rate=0.01, duration=500.0)
    .protocol(max_recovery_time=1_500.0)
    .measure(horizon=2_500.0)
    .spec(),
    scenario("mobile_handoff")
    .describe("random-waypoint movement with distance-scaled loss; "
              "region changes trigger leave/rejoin handoffs")
    .regions(3, 10)
    .uniform(20, 25.0, start=1.0)
    .loss(p=0.02)
    .mobility(speed=2.0, epoch=50.0, distance_loss=0.10)
    .protocol(max_recovery_time=1_200.0)
    .measure(horizon=2_000.0)
    .spec(),
    scenario("streaming_playback")
    .describe("25 ms frame cadence into a lossy two-region WAN; "
              "rebuffer tracker scores playback smoothness")
    .chain(25, 25)
    .latency(intra_one_way=5.0, inter_one_way=60.0)
    .uniform(40, 25.0, start=1.0)
    .loss(p=0.08)
    .playout(interval=25.0, startup_delay=50.0)
    .protocol(max_recovery_time=1_200.0)
    .measure(horizon=2_500.0)
    .spec(),
    scenario("regional_outage")
    .describe("inter-region links to one region black-holed for "
              "300 ms; mass gap recovery after the heal")
    .regions(3, 15)
    .uniform(24, 20.0, start=1.0)
    .outage(outage_start=150.0, outage_duration=300.0, outage_regions=1,
            receiver_loss=0.02)
    .protocol(max_recovery_time=1_500.0)
    .measure(horizon=2_800.0)
    .spec(),
)

#: The flat-engine tier: the ``scale_spec`` shape at sizes only the
#: numpy engine runs.  ``scale_10k`` is the shard-parity workload;
#: ``scale_100k`` the nightly full-oracle one (ledger ``flat_100k`` is
#: its 40-message twin), whose 1,000-member regions keep the numpy
#: fan-out wide enough that per-event Python overhead amortizes.
FLAT_SCENARIOS: Tuple[ScenarioSpec, ...] = (
    scale_spec(regions=10, members_per_region=1_000, messages=10).with_(
        name="scale_10k",
        description="flat engine: 10 regions x 1,000 members, 10 messages at 5% loss",
    ),
    scale_spec(regions=100, members_per_region=1_000, messages=10).with_(
        name="scale_100k",
        description="flat engine: 100 regions x 1,000 members, 10 messages at 5% loss",
    ),
)

_TIERS = {"object": OBJECT_SCENARIOS, "flat": FLAT_SCENARIOS}


def registered_scenarios(engine: str = "object") -> Dict[str, ScenarioSpec]:
    """*engine*'s tier (``"object"`` or ``"flat"``), name → spec, in
    listing order."""
    return {spec.name: spec for spec in _TIERS[engine]}


def scenario_names(engine: str = "object") -> List[str]:
    """The names in *engine*'s tier, in listing order."""
    return [spec.name for spec in _TIERS[engine]]


def get_scenario(name: str) -> ScenarioSpec:
    """The spec named *name* (either tier); raises ``KeyError`` with the
    catalogue."""
    for tier in _TIERS.values():
        for spec in tier:
            if spec.name == name:
                return spec
    raise KeyError(
        f"unknown scenario {name!r}; known: " + ", ".join(scenario_names())
        + "; flat engine: " + ", ".join(scenario_names("flat"))
    )


def resolve_spec(name_or_path: str) -> ScenarioSpec:
    """A catalogue name, or a path to a ScenarioSpec JSON file.

    Raises ``KeyError`` (with the catalogue) when it is neither, and
    ``OSError``/``ValueError`` when the file cannot be read as a spec.
    """
    try:
        return get_scenario(name_or_path)
    except KeyError:
        if not os.path.exists(name_or_path):
            raise
    with open(name_or_path, encoding="utf-8") as handle:
        return ScenarioSpec.from_json(handle.read())
