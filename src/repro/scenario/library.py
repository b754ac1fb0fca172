"""The built-in scenario library.

Two layers:

* **Parameterized spec factories** (``initial_holders_spec``,
  ``search_spec``, ``scale_spec``) — the declarative form of the
  paper's §4 workloads, consumed by
  :mod:`repro.workloads.scenarios` (whose ``run_*`` helpers wrap them
  in result objects) and by the registered defaults below.
* **Registered named scenarios** — ``@register_scenario`` entries,
  the one catalogue every CLI subcommand (``scenarios``, ``validate``,
  ``live``) resolves names in.  Beyond the three §4 workloads, the
  library ships the configurations the related work motivates and the
  old constructor sprawl made painful to express: bursty
  Gilbert–Elliott WAN links (Seok & Turletti's 802.11 setting), a
  linearly accelerating overload-onset stream, grid-style heterogeneous
  region sizes (Hudzia & Petiton), and a flash-crowd join storm.  The
  last two entries are the ``scale_spec`` shape at sizes only the flat
  numpy engine exists for; they register with ``engine="flat"``, which
  keeps them out of the golden-digest iteration (``scenario_names()``)
  and makes ``scenarios run`` execute them on
  :func:`repro.scale.engine.run_flat`.
"""

from __future__ import annotations

from typing import Optional

from repro.scenario.builder import scenario
from repro.scenario.registry import register_scenario
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
    if not 0 <= bufferers <= n:
        raise ValueError(f"bufferers must be in [0, n], got {bufferers}")
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
# Registered named scenarios
# ----------------------------------------------------------------------
@register_scenario(
    "initial_holders",
    description="Fig 6/7 workload: 10 of 100 members hold a message, "
    "feedback buffering serves the rest",
)
def _initial_holders() -> ScenarioSpec:
    return initial_holders_spec(n=100, k=10)


@register_scenario(
    "search",
    description="Fig 8/9 workload: a downstream request searches 10 "
    "bufferers in a 100-member region",
)
def _search() -> ScenarioSpec:
    return search_spec(n=100, bufferers=10)


@register_scenario(
    "scale",
    description="north-star stress: 10 regions x 100 members, 20 "
    "messages at 5% loss",
)
def _scale() -> ScenarioSpec:
    return scale_spec()


@register_scenario(
    "wan_burst_loss",
    description="Gilbert-Elliott bursty link loss on a two-region WAN "
    "(802.11-style correlated drops)",
)
def _wan_burst_loss() -> ScenarioSpec:
    return (
        scenario("wan_burst_loss")
        .describe("bursty two-state link loss; repairs drop too")
        .chain(20, 20)
        .latency(intra=5.0, inter=40.0)
        .uniform(30, 10.0, start=1.0)
        .gilbert_elliott(p_good_to_bad=0.02, p_bad_to_good=0.25, p_bad=0.8)
        .protocol(remote_lambda=2.0, max_recovery_time=1_500.0)
        .measure(horizon=2_500.0)
    ).spec()


@register_scenario(
    "overload_onset",
    description="RampStream send rate climbing 25 ms -> 2.5 ms gaps "
    "while 10% of receivers miss each message",
)
def _overload_onset() -> ScenarioSpec:
    return (
        scenario("overload_onset")
        .describe("linearly accelerating stream into a lossy region")
        .single_region(50)
        .ramp(40, initial_interval=25.0, final_interval=2.5, start=1.0)
        .loss(p=0.10)
        .protocol(max_recovery_time=1_500.0)
        .measure(horizon=2_500.0)
    ).spec()


@register_scenario(
    "overload_onset_cc",
    description="overload_onset with a TFMCC controller pacing the "
    "sender off worst-receiver feedback",
)
def _overload_onset_cc() -> ScenarioSpec:
    return (
        scenario("overload_onset_cc")
        .describe("accelerating stream, but the sender yields to feedback")
        .single_region(50)
        .ramp(40, initial_interval=25.0, final_interval=2.5, start=1.0)
        .loss(p=0.10)
        .congestion("tfmcc", target_loss=0.02, min_rate=5.0,
                    max_rate=400.0, feedback_interval=100.0)
        .protocol(max_recovery_time=1_500.0)
        .measure(horizon=2_500.0)
    ).spec()


@register_scenario(
    "heterogeneous_regions",
    description="grid-style hierarchy with very unequal region sizes "
    "and regional losses",
)
def _heterogeneous_regions() -> ScenarioSpec:
    return (
        scenario("heterogeneous_regions")
        .describe("50/12/4-member chain; whole regions miss messages")
        .chain(50, 12, 4)
        .latency(intra=5.0, inter=80.0)
        .uniform(20, 25.0, start=1.0)
        .regional_loss(region=0.2, receiver=0.05)
        .protocol(remote_lambda=2.0, max_recovery_time=2_000.0)
        .measure(horizon=3_000.0)
    ).spec()


@register_scenario(
    "flash_crowd",
    description="join storm: fresh members flood in mid-stream while "
    "the sender keeps multicasting",
)
def _flash_crowd() -> ScenarioSpec:
    return (
        scenario("flash_crowd")
        .describe("high join rate plus background leaves under load")
        .regions(3, 20)
        .uniform(24, 20.0, start=1.0)
        .loss(p=0.05)
        .churn(join_rate=0.05, leave_rate=0.01, duration=500.0)
        .protocol(max_recovery_time=1_500.0)
        .measure(horizon=2_500.0)
    ).spec()


@register_scenario(
    "mobile_handoff",
    description="waypoint mobility: members roam between 3 regions, "
    "handing buffers off through the §3.2 long-term path",
)
def _mobile_handoff() -> ScenarioSpec:
    return (
        scenario("mobile_handoff")
        .describe("random-waypoint movement with distance-scaled loss; "
                  "region changes trigger leave/rejoin handoffs")
        .regions(3, 10)
        .uniform(20, 25.0, start=1.0)
        .loss(p=0.02)
        .mobility(speed=2.0, epoch=50.0, distance_loss=0.10)
        .protocol(max_recovery_time=1_200.0)
        .measure(horizon=2_000.0)
    ).spec()


@register_scenario(
    "streaming_playback",
    description="CBR stream judged against per-receiver playout "
    "deadlines; stalls are counted as rebuffer events",
)
def _streaming_playback() -> ScenarioSpec:
    return (
        scenario("streaming_playback")
        .describe("25 ms frame cadence into a lossy two-region WAN; "
                  "rebuffer tracker scores playback smoothness")
        .chain(25, 25)
        .latency(intra=5.0, inter=60.0)
        .uniform(40, 25.0, start=1.0)
        .loss(p=0.08)
        .playout(interval=25.0, startup_delay=50.0)
        .protocol(max_recovery_time=1_200.0)
        .measure(horizon=2_500.0)
    ).spec()


@register_scenario(
    "regional_outage",
    description="whole-region partition mid-stream: one region drops "
    "off the WAN, heals, and recovers its accumulated gaps",
)
def _regional_outage() -> ScenarioSpec:
    return (
        scenario("regional_outage")
        .describe("inter-region links to one region black-holed for "
                  "300 ms; mass gap recovery after the heal")
        .regions(3, 15)
        .uniform(24, 20.0, start=1.0)
        .outage(start=150.0, duration=300.0, regions=1, receiver_loss=0.02)
        .protocol(max_recovery_time=1_500.0)
        .measure(horizon=2_800.0)
    ).spec()


_SCALE_10K = "flat engine: 10 regions x 1,000 members, 10 messages at 5% loss"
_SCALE_100K = "flat engine: 100 regions x 1,000 members, 10 messages at 5% loss"


@register_scenario("scale_10k", description=_SCALE_10K, engine="flat")
def _scale_10k() -> ScenarioSpec:
    """The PR-gate shard-parity workload."""
    return scale_spec(
        regions=10, members_per_region=1_000, messages=10
    ).with_(description=_SCALE_10K)


@register_scenario("scale_100k", description=_SCALE_100K, engine="flat")
def _scale_100k() -> ScenarioSpec:
    """The nightly full-oracle workload (ledger ``flat_100k`` is its 40-message twin).

    1,000-member regions keep the numpy fan-out wide enough that the
    per-event Python overhead amortizes (100 x 1000 beats 1000 x 100 by
    an order of magnitude at identical member count).
    """
    return scale_spec(
        regions=100, members_per_region=1_000, messages=10
    ).with_(description=_SCALE_100K)
