"""The ``scenarios`` CLI subcommand: list / describe / run named specs.

Wired into the ``rrmp`` entry point::

    rrmp scenarios list
    rrmp scenarios describe wan_burst_loss
    rrmp scenarios run overload_onset --seed 3 --json
    rrmp scenarios run my_spec.json --param policy.c=3
    rrmp scenarios run scale_100k --shards 4 --jobs 4

``describe`` prints the spec's JSON form (the exact payload
``ScenarioSpec.from_json`` accepts) plus its digest; ``run``
materializes, runs to the measurement end and prints the summary
metrics — as aligned text or, with ``--json``, as one JSON object for
pipelines.

This module also owns the one way every subcommand (``scenarios``,
``validate``, ``live``) gets from its command line to a spec:
:func:`add_spec_arguments` declares the shared ``scenario`` /
``--seed`` / ``--param`` group and :func:`spec_from_args` resolves it —
a registered name or a spec JSON file
(:func:`repro.scenario.registry.resolve_spec`), then the overrides.

``run`` picks the engine from the registry: names registered with
``engine="flat"`` (``scale_10k``, ``scale_100k``) execute on the flat
array engine (:mod:`repro.scale.engine`), where ``--shards`` partitions
regions across engines and ``--jobs`` > 1 moves each shard into its own
worker process; everything else — object-engine names and spec files —
runs on the object engine, which has no sharded mode.

``--profile`` wraps the run in cProfile: raw stats land in
``profile.pstats`` (override with ``--profile-out``) and the top 25
functions by cumulative time go to stderr, leaving stdout clean for
``--json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional

from repro.metrics.runreport import RunReport
from repro.runner.profiling import maybe_profile
from repro.scale.engine import require_flat_support, run_flat
from repro.scenario.materialize import build_config
from repro.scenario.registry import registered_scenarios, resolve_spec, scenario_names
from repro.scenario.spec import ScenarioSpec


def add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``scenario`` / ``--seed`` / ``--param`` group every
    spec-consuming subcommand shares (read by :func:`spec_from_args`)."""
    parser.add_argument("scenario", help="registered scenario name or path to a "
                                         "ScenarioSpec JSON file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the spec's master seed")
    parser.add_argument("--param", action="append", default=[], metavar="K=V",
                        help="override a spec field by dotted path, e.g. "
                             "--param congestion.controller=tfmcc "
                             "--param policy.c=3")


def spec_from_args(args: argparse.Namespace) -> Optional[ScenarioSpec]:
    """Resolve the shared argument group into a spec.

    An unknown name, an unreadable spec file or a bad override is a
    usage error: it is reported on stderr — with the catalogue, for an
    unknown name — and ``None`` comes back, for the caller to turn into
    exit code 2.  Only the lookup is guarded; failures inside a run
    must stay loud.
    """
    from repro.experiments.cli import parse_param

    try:
        spec = resolve_spec(args.scenario)
        if args.seed is not None:
            spec = spec.with_(seed=args.seed)
        return _apply_spec_overrides(
            spec, [parse_param(text) for text in args.param]
        )
    except (KeyError, OSError, TypeError, ValueError,
            argparse.ArgumentTypeError) as error:
        message = error.args[0] if isinstance(error, KeyError) else error
        print(f"error: {message}", file=sys.stderr)
        return None


def add_scenarios_parser(commands) -> None:
    """Attach the ``scenarios`` subcommand tree to *commands*."""
    parser = commands.add_parser(
        "scenarios", help="list, describe or run registered named scenarios"
    )
    actions = parser.add_subparsers(dest="scenario_command", required=True)
    actions.add_parser("list", help="list registered scenarios")
    describe = actions.add_parser("describe", help="print one scenario's spec JSON")
    add_spec_arguments(describe)
    run = actions.add_parser("run", help="build and run one scenario")
    add_spec_arguments(run)
    run.add_argument("--json", action="store_true", dest="as_json",
                     help="print the run summary as JSON")
    run.add_argument("--shards", type=int, default=1, metavar="N",
                     help="flat-engine scenarios only: partition the regions "
                          "across N flat engines")
    run.add_argument("--jobs", type=int, default=None, metavar="M",
                     help="flat-engine scenarios only: M > 1 runs each shard "
                          "in its own worker process (default: in-process)")
    run.add_argument("--profile", action="store_true",
                     help="profile the run with cProfile (stats file + top-25 "
                          "cumulative on stderr)")
    run.add_argument("--profile-out", default="profile.pstats", metavar="PATH",
                     help="where --profile writes the raw pstats file "
                          "(default: profile.pstats)")


def main_scenarios(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``scenarios`` invocation; returns the exit code."""
    if args.scenario_command == "list":
        return _cmd_list()
    spec = spec_from_args(args)
    if spec is None:
        return 2
    if args.scenario_command == "describe":
        return _cmd_describe(spec)
    return _cmd_run(spec, args)


def _cmd_list() -> int:
    tiers = {engine: registered_scenarios(engine) for engine in ("object", "flat")}
    width = max(len(name) for entries in tiers.values() for name in entries)
    for engine, entries in tiers.items():
        if engine == "flat":
            print()
            print("scale tier (flat engine):")
        for name, entry in entries.items():
            members = entry.spec().topology.member_count()
            print(f"{name.ljust(width)}  [{members:>6d} members]  {entry.description}")
    return 0


def _cmd_describe(spec) -> int:
    print(spec.to_json(indent=2))
    print(f"digest: {spec.digest()}")
    return 0


def _apply_spec_overrides(spec, pairs):
    """Apply dotted-path ``--param`` overrides onto a frozen spec tree.

    Each path segment names a field on the current (sub-)spec; the leaf
    assignment runs through ``dataclasses.replace``, so the sub-spec's
    ``__post_init__`` validation re-fires on the overridden value.
    """
    for key, value in pairs:
        parts = key.split(".")
        node = spec
        chain = [spec]
        for part in parts[:-1]:
            if not hasattr(node, part):
                raise ValueError(
                    f"--param {key}: {type(node).__name__} has no field {part!r}"
                )
            node = getattr(node, part)
            chain.append(node)
        leaf = parts[-1]
        if not hasattr(node, leaf):
            raise ValueError(
                f"--param {key}: {type(node).__name__} has no field {leaf!r}"
            )
        updated = dataclasses.replace(node, **{leaf: value})
        for parent, part in zip(reversed(chain[:-1]), reversed(parts[:-1])):
            updated = dataclasses.replace(parent, **{part: updated})
        spec = updated
    return spec


def _cmd_run(spec, args: argparse.Namespace) -> int:
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    flat = args.scenario in scenario_names("flat")
    if args.shards > 1 and not flat:
        print(f"error: --shards applies to flat-engine scenarios only "
              f"({', '.join(scenario_names('flat'))}); {args.scenario!r} runs "
              "on the object engine", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    # Range checks on policy values live in RrmpConfig: a bad --param
    # surfaces when the run is constructed.  Only construction is
    # guarded; a ValueError raised while running stays loud.
    try:
        if flat:
            require_flat_support(spec)
            build_config(spec.policy, spec.fec)
        else:
            simulation = spec.build()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with maybe_profile(args.profile, args.profile_out):
        if flat:
            processes = args.jobs is not None and args.jobs > 1
            summary = run_flat(spec, shards=args.shards, processes=processes).summary()
        else:
            summary = simulation.run().summary()
    report = RunReport(kind="scenario", scenario=spec.name, seed=spec.seed,
                       metrics=summary)
    if args.as_json:
        print(report.to_json())
        return 0
    print(report.to_text(f"== scenario {spec.name} (seed {spec.seed}) =="))
    return 0
