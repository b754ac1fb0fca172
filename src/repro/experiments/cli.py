"""Command-line entry point: regenerate paper figures from a terminal.

Usage::

    rrmp list
    rrmp run fig6
    rrmp run fig8 --param seeds=25 --param n=50
    rrmp run ablation_scaling --quick --jobs 4
    rrmp all --quick --jobs 4 --cache-dir /tmp/rrmp-cache
    rrmp scenarios list
    rrmp scenarios run wan_burst_loss --json
    rrmp validate run scale
    rrmp validate fuzz --trials 200 --seed 0 --json
    rrmp live run wan_burst_loss --speedup 4
    rrmp live diff initial_holders --speedup 2 --json

``--param key=value`` values are parsed as Python literals (numbers,
tuples, booleans; lowercase ``true``/``false``/``none`` coerce too)
and passed to the experiment function; a key the function does not
take is a usage error (exit 2) naming the parameters it does take.

``scenarios`` lists, describes and runs the named declarative
scenarios of :mod:`repro.scenario` (see ``scenarios --help``);
``validate`` runs scenarios under the protocol invariant oracle and
fuzzes the scenario space (see ``validate --help``).

``run`` and ``all`` execute through the sweep runner: ``--jobs N``
fans trials across N worker processes (byte-identical tables to
``--jobs 1`` at equal seeds), and results are cached on disk keyed by
``(experiment, params, seed, schema version)`` so re-runs are
near-instant.  ``--no-cache`` disables the cache; ``--cache-dir``
relocates it (default: ``$RRMP_CACHE_DIR`` or
``~/.cache/rrmp-experiments``).  Tables go to stdout; the runner's
trial accounting goes to stderr.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import sys
from typing import List, Optional

from repro.experiments.quick import QUICK_PARAMS, quick_params_for
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from repro.runner import (
    ProcessPoolBackend,
    ResultCache,
    Runner,
    SerialBackend,
    using_runner,
)
from repro.runner.profiling import maybe_profile
from repro.live.cli import add_live_parser, main_live
from repro.scenario.cli import add_scenarios_parser, main_scenarios
from repro.validate.cli import add_validate_parser, main_validate

__all__ = [
    "QUICK_PARAMS",
    "build_parser",
    "fold_params",
    "main",
    "parse_param",
    "runner_from_args",
]


def parse_param(text: str) -> tuple:
    """Parse one ``key=value`` override.

    The value is parsed as a Python literal; what the literal grammar
    rejects is coerced in stages — lowercase/uppercase ``true``/
    ``false``/``none``/``null`` to their Python values, then a float
    parse (catching spellings like ``1_0e-3``, ``inf`` or ``nan``) —
    before falling back to the raw string.  ``--param fec=true`` must
    arrive as ``True``, not the string ``"true"``.

    Keys may be dotted paths: ``--param congestion.target_loss=0.02``
    addresses a field of a sub-config.  :func:`fold_params` folds the
    parsed pairs into the nested dict shape experiment functions (and
    spec overrides) consume.
    """
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"--param expects key=value, got {text!r}")
    key, _, raw = text.partition("=")
    return (key.strip(), _coerce_value(raw.strip()))


def fold_params(pairs) -> dict:
    """Fold parsed ``(key, value)`` pairs into a (possibly nested) dict.

    Dotted keys become nested dicts: ``("congestion.target_loss", 0.02)``
    lands as ``{"congestion": {"target_loss": 0.02}}``.  Mixing a scalar
    and a nested write under one key (``a=1`` plus ``a.b=2``) is a usage
    error, reported as such rather than silently last-wins.
    """
    params: dict = {}
    for key, value in pairs:
        parts = key.split(".")
        cursor = params
        for index, part in enumerate(parts[:-1]):
            existing = cursor.get(part)
            if existing is None:
                existing = cursor[part] = {}
            elif not isinstance(existing, dict):
                prefix = ".".join(parts[: index + 1])
                raise argparse.ArgumentTypeError(
                    f"--param {key}={value!r} conflicts with the scalar "
                    f"override already given for {prefix!r}"
                )
            cursor = existing
        leaf = parts[-1]
        if isinstance(cursor.get(leaf), dict):
            raise argparse.ArgumentTypeError(
                f"--param {key}={value!r} conflicts with the nested "
                f"overrides already given under {key!r}"
            )
        cursor[leaf] = value
    return params


_WORD_VALUES = {"true": True, "false": False, "none": None, "null": None}


def _coerce_value(raw: str) -> object:
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        pass
    lowered = raw.lower()
    if lowered in _WORD_VALUES:
        return _WORD_VALUES[lowered]
    try:
        return float(raw)
    except ValueError:
        return raw  # fall back to the raw string


def _positive_int(text: str) -> int:
    """argparse type for flags that must be >= 1 (e.g. ``--jobs``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep-runner flags shared by ``run`` and ``all``."""
    parser.add_argument(
        "--quick", action="store_true",
        help="use reduced repetition counts (seconds instead of minutes)",
    )
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="run trials across N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always execute trials, never read or write the result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache location (default: $RRMP_CACHE_DIR or "
             "~/.cache/rrmp-experiments)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile the run with cProfile: raw stats to --profile-out, "
             "top-25 cumulative functions to stderr",
    )
    parser.add_argument(
        "--profile-out", default="profile.pstats", metavar="PATH",
        help="where --profile writes the raw pstats file "
             "(default: profile.pstats)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="rrmp",
        description="Regenerate the figures of 'Optimizing Buffer Management "
                    "for Reliable Multicast' (DSN 2002).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list available experiments")
    run_parser = commands.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=experiment_ids())
    run_parser.add_argument(
        "--param", action="append", default=[], type=parse_param,
        help="override an experiment parameter, e.g. --param seeds=10",
    )
    _add_runner_arguments(run_parser)
    all_parser = commands.add_parser("all", help="run every experiment")
    _add_runner_arguments(all_parser)
    add_scenarios_parser(commands)
    add_validate_parser(commands)
    add_live_parser(commands)
    return parser


def runner_from_args(args: argparse.Namespace) -> Runner:
    """Build the runner the parsed ``run``/``all`` flags describe."""
    if args.jobs > 1:
        backend = ProcessPoolBackend(args.jobs)
    else:
        backend = SerialBackend()
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return Runner(backend=backend, cache=cache)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "scenarios":
        return main_scenarios(args)
    if args.command == "validate":
        return main_validate(args)
    if args.command == "live":
        return main_live(args)
    if args.command == "list":
        width = max(len(eid) for eid in experiment_ids())
        for eid in experiment_ids():
            print(f"{eid.ljust(width)}  {EXPERIMENTS[eid].description}")
        return 0
    if args.command == "run":
        params = quick_params_for(args.experiment) if args.quick else {}
        params.update(fold_params(args.param))
        accepted = inspect.signature(EXPERIMENTS[args.experiment].run).parameters
        unknown = sorted(set(params) - set(accepted))
        if unknown:
            print(f"error: {args.experiment} has no parameter "
                  f"{', '.join(map(repr, unknown))}; it accepts "
                  f"{', '.join(accepted)}", file=sys.stderr)
            return 2
        runner = runner_from_args(args)
        try:
            with maybe_profile(args.profile, args.profile_out):
                with using_runner(runner):
                    table = run_experiment(args.experiment, **params)
        finally:
            getattr(runner.backend, "close", lambda: None)()
        print(table.to_text())
        print(f"runner: {runner.stats.summary()} jobs={args.jobs}", file=sys.stderr)
        return 0
    if args.command == "all":
        runner = runner_from_args(args)
        try:
            with maybe_profile(args.profile, args.profile_out):
                with using_runner(runner):
                    for eid in experiment_ids():
                        params = quick_params_for(eid) if args.quick else {}
                        table = run_experiment(eid, **params)
                        print(table.to_text())
                        print()
        finally:
            getattr(runner.backend, "close", lambda: None)()
        print(f"runner: {runner.stats.summary()} jobs={args.jobs}", file=sys.stderr)
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
