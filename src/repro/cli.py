"""The ``rrmp`` command line (``python -m repro`` without installing).

Usage::

    rrmp list
    rrmp run EXPERIMENT [--param K=V ...] [RUNNER] [--profile [PATH]]
    rrmp all [RUNNER] [--profile [PATH]]
    rrmp scenarios list
    rrmp scenarios describe SPEC
    rrmp scenarios run SPEC [--json] [--shards N] [--jobs N] [--profile [PATH]]
    rrmp validate run SPEC [--json]
    rrmp validate digest SPEC
    rrmp validate fuzz [--trials N] [--seed S] [--artifacts DIR] [--json]
    rrmp validate replay ARTIFACT|DIR [--json]
    rrmp live run SPEC [--speedup X] [--json]
    rrmp live daemon SPEC [--speedup X] [--interval MS] [--snapshots N]
    rrmp live diff SPEC [--speedup X] [--artifacts DIR] [--json]
    rrmp live node SPEC --nodes IDS --directory FILE [--bind HOST:PORT]
                        [--hold SECONDS] [--speedup X]

    SPEC    NAME|spec.json [--seed N] [--param a.b=V ...]
    RUNNER  [--quick] [--jobs N] [--no-cache] [--cache-dir DIR]

``--param K=V`` values are Python literals; ``true``/``false``/
``none``/``null`` in any case and float spellings such as ``inf`` are
coerced, anything else stays a string.  For ``run`` the key is a flat
argument of the experiment function; for a SPEC it is a dotted path to
a spec field (``--param policy.c=3``).

``run`` and ``all`` execute through the sweep runner: ``--jobs N``
fans trials across N worker processes (tables byte-identical to
``--jobs 1``), and results are cached on disk (``--no-cache`` skips
the cache; ``--cache-dir`` defaults to ``$RRMP_CACHE_DIR`` or
``~/.cache/rrmp-experiments``).  Tables go to stdout, the runner's
trial accounting to stderr.

Scenarios registered for the flat engine (``scale_10k``,
``scale_100k``) run on it under ``scenarios run``, ``validate run``
and ``validate digest``; there ``--shards`` partitions the regions and
``--jobs`` > 1 gives each shard its own process.  ``--profile [PATH]``
writes cProfile stats to PATH (default ``profile.pstats``) and the top
25 functions by cumulative time to stderr.

Exit codes: 0 clean; 1 invariant violations, a crashing spec, a
sim/live digest mismatch, or a recovery that gave up under ``validate
run`` or ``live run``; 2 usage error, printed as one ``error:`` line
whoever found it.
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import dataclasses
import functools
import inspect
import json
import math
import os
import pstats
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

from repro.experiments.quick import quick_params_for
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from repro.metrics.runreport import RunReport
from repro.runner.backends import ProcessPoolBackend, SerialBackend
from repro.runner.cache import ResultCache
from repro.runner.runner import Runner, using_runner
from repro.scenario.library import registered_scenarios, resolve_spec, scenario_names


class UsageError(SystemExit):
    """A bad command line: :func:`main` prints it as ``error: ...``, exit 2."""

    def __init__(self, message: str) -> None:
        super().__init__(2)
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


# -- argument types ---------------------------------------------------

_WORD_VALUES = {"true": True, "false": False, "none": None, "null": None}


def parse_param(text: str) -> tuple:
    """Parse one ``key=value`` override into ``(key, value)``."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"--param expects key=value, got {text!r}")
    key, _, raw = text.partition("=")
    raw = raw.strip()
    try:
        return key.strip(), ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        pass
    if raw.lower() in _WORD_VALUES:
        return key.strip(), _WORD_VALUES[raw.lower()]
    try:
        return key.strip(), float(raw)
    except ValueError:
        return key.strip(), raw


def _number(kind, text: str):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _count(text: str) -> int:
    value = _number(int, text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive(text: str) -> float:
    value = _number(float, text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _non_negative(text: str) -> float:
    value = _number(float, text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _node_ids(text: str) -> set:
    try:
        return {int(part) for part in text.split(",") if part.strip()}
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _address(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


# -- shared pieces ----------------------------------------------------

@contextmanager
def maybe_profile(path: Optional[str]):
    """Run the block under cProfile when *path* is set: stats to *path*,
    the top 25 functions by cumulative time to stderr."""
    if path is None:
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(path)
        print(f"-- profile: wrote {path}; top 25 by cumulative time --", file=sys.stderr)
        pstats.Stats(profiler, stream=sys.stderr).sort_stats("cumulative").print_stats(25)


def runner_from_args(args: argparse.Namespace) -> Runner:
    """The sweep runner the ``run``/``all`` flags describe."""
    backend = ProcessPoolBackend(args.jobs) if args.jobs > 1 else SerialBackend()
    return Runner(backend=backend, cache=None if args.no_cache else ResultCache(args.cache_dir))


def _apply_spec_overrides(spec, pairs):
    """Apply dotted-path ``--param`` overrides onto a frozen spec tree.

    Each segment names a field of the current (sub-)spec; the leaf is set
    through ``dataclasses.replace``, so the sub-spec's ``__post_init__``
    validation re-fires on the new value.
    """
    for key, value in pairs:
        parts = key.split(".")
        chain = [spec]
        for part in parts:
            if not hasattr(chain[-1], part):
                raise ValueError(
                    f"--param {key}: {type(chain[-1]).__name__} has no field {part!r}")
            chain.append(getattr(chain[-1], part))
        updated = value
        for parent, part in zip(reversed(chain[:-1]), reversed(parts)):
            updated = dataclasses.replace(parent, **{part: updated})
        spec = updated
    return spec


def _spec(args: argparse.Namespace):
    """The SPEC group resolved: a registered name or a spec JSON file,
    then ``--seed`` and ``--param``.  A lookup failure is a usage error;
    failures inside a run stay loud."""
    try:
        spec = resolve_spec(args.scenario)
        if args.seed is not None:
            spec = spec.with_(seed=args.seed)
        return _apply_spec_overrides(spec, args.param)
    except (KeyError, OSError, TypeError, ValueError) as error:
        raise UsageError(str(error.args[0] if isinstance(error, KeyError) else error)) from None


def _on_flat_engine(spec) -> bool:
    """Whether the resolved *spec* is a flat-tier scenario, whether it
    was named or read from a JSON file; one with a spec node the flat
    engine refuses is a usage error."""
    if spec.name not in scenario_names("flat"):
        return False
    from repro.scenario.materialize import require_envelope

    try:
        require_envelope(spec, "flat")
    except ValueError as error:
        raise UsageError(str(error)) from None
    return True


def _print(report: RunReport, as_json: bool, title: Optional[str] = None) -> None:
    print(report.to_json() if as_json else report.to_text(title))


# -- experiments ------------------------------------------------------

def _list(args) -> int:
    width = max(len(eid) for eid in experiment_ids())
    for eid in experiment_ids():
        print(f"{eid.ljust(width)}  {EXPERIMENTS[eid].description}")
    return 0


def _sweep(args, experiments, end: str = "\n") -> int:
    runner = runner_from_args(args)
    try:
        with maybe_profile(args.profile), using_runner(runner):
            for eid, params in experiments:
                print(run_experiment(eid, **params).to_text(), end=end)
    finally:
        getattr(runner.backend, "close", lambda: None)()
    print(f"runner: {runner.stats.summary()} jobs={args.jobs}", file=sys.stderr)
    return 0


def _run(args) -> int:
    params = quick_params_for(args.experiment) if args.quick else {}
    params.update(args.param)
    accepted = inspect.signature(EXPERIMENTS[args.experiment].run).parameters
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise UsageError(f"{args.experiment} has no parameter "
                         f"{', '.join(map(repr, unknown))}; it accepts {', '.join(accepted)}")
    return _sweep(args, [(args.experiment, params)])


def _all(args) -> int:
    return _sweep(args, ((eid, quick_params_for(eid) if args.quick else {})
                         for eid in experiment_ids()), end="\n\n")


# -- scenarios --------------------------------------------------------

def _scenarios_list(args) -> int:
    tiers = {engine: registered_scenarios(engine) for engine in ("object", "flat")}
    width = max(len(name) for entries in tiers.values() for name in entries)
    for engine, entries in tiers.items():
        if engine == "flat":
            print()
            print("scale tier (flat engine):")
        for name, spec in entries.items():
            members = spec.topology.member_count()
            print(f"{name.ljust(width)}  [{members:>6d} members]  {spec.description}")
    return 0


def _scenarios_describe(args) -> int:
    spec = _spec(args)
    print(spec.to_json(indent=2))
    print(f"digest: {spec.digest()}")
    return 0


def _scenarios_run(args) -> int:
    spec = _spec(args)
    flat = _on_flat_engine(spec)
    if args.shards > 1 and not flat:
        raise UsageError(f"--shards applies to flat-engine scenarios only "
                         f"({', '.join(scenario_names('flat'))}); {args.scenario!r} "
                         "runs on the object engine")
    # Only construction is guarded: a ValueError raised by the run
    # itself stays loud.
    if flat:
        from repro.scale.engine import run_flat
    else:
        try:
            simulation = spec.build()
        except ValueError as error:
            raise UsageError(str(error)) from None
    with maybe_profile(args.profile):
        if flat:
            result = run_flat(spec, shards=args.shards, processes=args.jobs > 1)
        else:
            result = simulation.run()
    _print(RunReport(kind="scenario", scenario=spec.name, seed=spec.seed,
                     metrics=result.summary()), args.as_json)
    return 0


# -- validate ---------------------------------------------------------

def _oracle_report(spec, as_json: bool, flat: bool = False,
                   give_ups_fail: bool = False) -> int:
    """Run *spec* under the oracle and report it; with *give_ups_fail*
    a recovery that gave up fails the run too, as in ``live run``."""
    from repro.validate.fuzz import TrialOutcome, run_spec

    if flat:
        from repro.scale.engine import run_flat

        # The flat engine reports the oracle's counts, not each violation.
        measurement = dataclasses.replace(spec.measurement, oracle=True)
        result = run_flat(dataclasses.replace(spec, measurement=measurement), digest=False)
        outcome = TrialOutcome(spec=spec, violation_count=result.invariant_violations,
                               records_checked=result.oracle_records_checked,
                               events_fired=result.events_fired,
                               give_ups=result.reliability_violations)
    else:
        outcome = run_spec(spec)
    report = RunReport(
        kind="validate", scenario=spec.name, seed=spec.seed,
        metrics={
            "scenario": spec.name,
            "seed": spec.seed,
            # The spec as the user named it: run_spec forces the oracle
            # on internally, and that spec's digest would match neither
            # `scenarios describe` nor the file on disk.
            "digest": spec.digest(),
            "error": outcome.error,
            "violation_count": outcome.violation_count,
            "records_checked": outcome.records_checked,
            "events_fired": outcome.events_fired,
            "violations": outcome.violations,
            "cyclic_garbage": outcome.cyclic_garbage,
            "give_ups": outcome.give_ups,
        },
        failed=outcome.failed or (give_ups_fail and outcome.give_ups > 0),
    )
    _print(report, as_json)
    if not as_json:
        for violation in outcome.violations[:20]:
            print(f"  [{violation['invariant']}] t={violation['time']:g} "
                  f"{violation['message']}")
        if outcome.violation_count > 20:
            print(f"  ... and {outcome.violation_count - 20} more")
        if outcome.cyclic_garbage:
            print(f"  the run left {outcome.cyclic_garbage} objects in reference cycles")
        if give_ups_fail and outcome.give_ups:
            print(f"  {outcome.give_ups} recoveries gave up (reliability_violation records)")
        if not outcome.failed:
            print("  all invariants hold")
    return report.exit_code


def _validate_run(args) -> int:
    spec = _spec(args)
    return _oracle_report(spec, args.as_json, flat=_on_flat_engine(spec), give_ups_fail=True)


def _validate_digest(args) -> int:
    spec = _spec(args)
    if _on_flat_engine(spec):
        from repro.scale.engine import run_flat

        result = run_flat(spec)
        digest, count = result.trace_digest, result.trace_records
    else:
        from repro.sim.tracing import trace_digest

        records = spec.build().run().simulation.trace.records
        digest, count = trace_digest(records), len(records)
    print(f"{digest}  {spec.name} (seed {spec.seed}, {count} records)")
    return 0


def _validate_fuzz(args) -> int:
    from repro.validate.fuzz import run_fuzz

    def progress(index: int, outcome) -> None:
        if not args.as_json:
            status = "FAIL" if outcome.failed else "ok"
            print(f"trial {index:4d}  {status:4s}  {outcome.spec.name}  "
                  f"records={outcome.records_checked}", file=sys.stderr)

    fuzz = run_fuzz(trials=args.trials, seed=args.seed, artifact_dir=args.artifacts,
                    progress=progress)
    report = RunReport(kind="validate", scenario="fuzz", seed=args.seed,
                       metrics=fuzz.to_dict(), failed=not fuzz.ok)
    _print(report, args.as_json, f"== fuzz: {fuzz.trials} trials, seed {fuzz.seed} ==")
    if not args.as_json:
        for failure in fuzz.failures:
            print(f"  trial {failure['trial_index']}: {failure['failure']} "
                  f"(digest {failure['digest'][:12]})")
        for path in fuzz.artifacts:
            print(f"  artifact: {path}")
        if fuzz.ok:
            print("  all invariants hold on every sampled scenario")
    return report.exit_code


def _validate_replay(args) -> int:
    from repro.validate.fuzz import load_artifact_spec, run_spec

    if not os.path.isdir(args.artifact):
        try:
            spec = load_artifact_spec(args.artifact)
        except (OSError, ValueError, KeyError) as error:
            raise UsageError(f"cannot load artifact {args.artifact!r}: {error}") from None
        return _oracle_report(spec, args.as_json)
    directory = args.artifact
    paths = sorted(os.path.join(directory, name) for name in os.listdir(directory)
                   if name.endswith(".json"))
    if not paths:
        raise UsageError(f"no *.json artifacts in {directory!r}")
    results = []
    for path in paths:
        entry = {"artifact": path}
        try:
            spec = load_artifact_spec(path)
        except (OSError, ValueError, KeyError) as error:
            entry.update(status="load_error", error=str(error))
        else:
            outcome = run_spec(spec)
            entry.update(status="fail" if outcome.failed else "ok", scenario=spec.name,
                         seed=spec.seed, violation_count=outcome.violation_count,
                         error=outcome.error)
        results.append(entry)
    failed = [entry for entry in results if entry["status"] != "ok"]
    report = RunReport(
        kind="validate", scenario=directory, seed=0,
        metrics={"directory": directory, "artifacts": len(results),
                 "failures": len(failed), "results": results},
        failed=bool(failed),
    )
    _print(report, args.as_json, f"== replay {directory} ({len(results)} artifacts) ==")
    if not args.as_json:
        for entry in results:
            name = os.path.basename(entry["artifact"])
            if entry["status"] == "load_error":
                print(f"  LOAD ERROR  {name}: {entry['error']}")
            elif entry["status"] == "fail":
                detail = entry["error"] or f"{entry['violation_count']} violations"
                print(f"  FAIL        {name}  {entry['scenario']} "
                      f"(seed {entry['seed']}): {detail}")
            else:
                print(f"  ok          {name}  {entry['scenario']} (seed {entry['seed']})")
        print(f"  {len(results) - len(failed)}/{len(results)} replay clean")
    return report.exit_code


# -- live -------------------------------------------------------------

def _live(handler):
    """Resolve the SPEC for a live handler; a spec node the session
    refuses by name (a ``ValueError``) is a usage error."""
    @functools.wraps(handler)
    def wrapped(args) -> int:
        spec = _spec(args)
        try:
            return handler(spec, args)
        except ValueError as error:
            raise UsageError(str(error)) from None
    return wrapped


@_live
def _live_run(spec, args) -> int:
    import asyncio

    from repro.live.session import run_spec_live

    measurement = dataclasses.replace(spec.measurement, oracle=True)
    session = asyncio.run(run_spec_live(spec.with_(measurement=measurement),
                                        speedup=args.speedup))
    oracle = session.built.oracle
    # The spec as the user named it, as `validate run` reports it.
    summary = {**session.summary(), "digest": spec.digest()}
    report = RunReport(kind="live", scenario=spec.name, seed=spec.seed, metrics=summary,
                       oracle=oracle.report_dict(),
                       failed=oracle.violation_count > 0 or summary["reliability_violations"] > 0)
    _print(report, args.as_json,
           f"== live {spec.name} (seed {spec.seed}, speedup {args.speedup:g}) ==")
    return report.exit_code


@_live
def _live_daemon(spec, args) -> int:
    import asyncio

    from repro.live.session import LiveSession

    async def daemon() -> int:
        session = LiveSession(spec, speedup=args.speedup)
        await session.start()
        runner = asyncio.ensure_future(session.run())
        emitted, previous = 0, None
        try:
            while not runner.done() and emitted != args.snapshots:
                await session.sim.sleep(args.interval)
                previous = session.snapshot(previous)
                print(json.dumps(previous.to_dict()), flush=True)
                emitted += 1
            if runner.done():
                runner.result()  # surface run() errors
        finally:
            runner.cancel()
            await session.close()
        return 1 if session.violation_count() > 0 else 0

    try:
        return asyncio.run(daemon())
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        return 0


@_live
def _live_diff(spec, args) -> int:
    from repro.live.differential import run_differential

    result = run_differential(spec, speedup=args.speedup)
    report = RunReport(kind="live", scenario=spec.name, seed=result.seed,
                       metrics=result.to_dict(), failed=not result.ok)
    _print(report, args.as_json,
           f"== diff {spec.name} (seed {result.seed}, speedup {args.speedup:g}) ==")
    if not args.as_json:
        print("  MATCH" if result.digests_match else "  DIGEST MISMATCH")
    if report.failed and args.artifacts is not None:
        os.makedirs(args.artifacts, exist_ok=True)
        path = os.path.join(args.artifacts, f"diff_{spec.name}_{result.spec_digest[:12]}.json")
        Path(path).write_text(report.to_json(indent=2), encoding="utf-8")
        print(f"  artifact: {path}", file=sys.stderr)
    return report.exit_code


@_live
def _live_node(spec, args) -> int:
    import asyncio

    from repro.live.session import LiveSession

    try:
        with open(args.directory, encoding="utf-8") as handle:
            directory = {int(node): (str(addr[0]), int(addr[1]))
                         for node, addr in json.load(handle).items()}
    except OSError as error:
        raise UsageError(str(error)) from None
    missing = args.nodes - set(directory)
    if missing:
        raise UsageError(f"--nodes {sorted(missing)} absent from the directory")

    async def node() -> int:
        session = LiveSession(spec, speedup=args.speedup, local_nodes=args.nodes,
                              directory=directory, bind=args.bind, hold=args.hold > 0)
        try:
            address = await session.start()
            print(json.dumps({"bound": list(address), "nodes": sorted(args.nodes)}),
                  flush=True)
            if args.hold > 0:
                await asyncio.sleep(args.hold)
                session.release_clock()
            await session.run()
        finally:
            await session.close()
        summary = session.summary()
        print(json.dumps(summary), flush=True)
        return 1 if summary["reliability_violations"] > 0 else 0

    try:
        return asyncio.run(node())
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        return 0


# -- the parser -------------------------------------------------------

def _group(*arguments, parents=()) -> _Parser:
    """A parent parser holding *arguments*, each ``(flags, options)``."""
    parent = _Parser(add_help=False, parents=list(parents))
    for flags, options in arguments:
        parent.add_argument(*flags, **options)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The whole ``rrmp`` parser; each leaf sets its ``handler``."""
    param = _group((["--param"], dict(
        action="append", default=[], type=parse_param, metavar="K=V",
        help="override a parameter: an experiment argument (seeds=10) or a "
             "spec field by dotted path (policy.c=3)")))
    spec = _group(
        (["scenario"], dict(help="registered scenario name or ScenarioSpec JSON file")),
        (["--seed"], dict(type=int, default=None, help="override the spec's master seed")),
        parents=[param])
    as_json = _group((["--json"], dict(action="store_true", dest="as_json",
                                       help="print the result as one JSON object")))
    jobs = _group((["--jobs"], dict(
        type=_count, default=1, metavar="N",
        help="worker processes: trials of run/all, or one per shard of a "
             "flat-engine scenario (default: 1, in-process)")))
    runner = _group(
        (["--quick"], dict(action="store_true",
                           help="reduced repetition counts (seconds instead of minutes)")),
        (["--no-cache"], dict(action="store_true",
                              help="always execute trials; never read or write the cache")),
        (["--cache-dir"], dict(default=None, metavar="DIR",
                               help="result cache location (default: $RRMP_CACHE_DIR "
                                    "or ~/.cache/rrmp-experiments)")),
        parents=[jobs])
    profile = _group((["--profile"], dict(
        nargs="?", const="profile.pstats", default=None, metavar="PATH",
        help="profile with cProfile: stats to PATH (default: profile.pstats), "
             "top 25 cumulative to stderr")))
    speedup = _group((["--speedup"], dict(
        type=_positive, default=1.0,
        help="virtual-to-real time ratio (default: 1.0; higher needs CPU headroom)")))
    artifacts = _group((["--artifacts"], dict(
        default=None, metavar="DIR", help="on failure, write repro JSON into DIR")))

    parser = _Parser(prog="rrmp", description="Regenerate the figures of 'Optimizing "
                     "Buffer Management for Reliable Multicast' (DSN 2002).")
    commands = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, handler, summary, parents=()):
        child = group.add_parser(name, help=summary, parents=list(parents))
        child.set_defaults(handler=handler)
        return child

    leaf(commands, "list", _list, "list available experiments")
    run = leaf(commands, "run", _run, "run one experiment",
               [param, runner, profile])
    run.add_argument("experiment", choices=experiment_ids())
    leaf(commands, "all", _all, "run every experiment", [runner, profile])

    scenarios = commands.add_parser(
        "scenarios", help="list, describe or run registered scenarios"
    ).add_subparsers(dest="action", required=True)
    leaf(scenarios, "list", _scenarios_list, "list registered scenarios")
    leaf(scenarios, "describe", _scenarios_describe, "print one scenario's spec JSON "
         "and digest", [spec])
    run = leaf(scenarios, "run", _scenarios_run, "build and run one scenario",
               [spec, as_json, jobs, profile])
    run.add_argument("--shards", type=_count, default=1, metavar="N",
                     help="flat-engine scenarios only: partition the regions "
                          "across N flat engines")

    validate = commands.add_parser(
        "validate", help="check protocol invariants: oracle runs, fuzzing, replays"
    ).add_subparsers(dest="action", required=True)
    leaf(validate, "run", _validate_run, "run one scenario under the invariant oracle",
         [spec, as_json])
    leaf(validate, "digest", _validate_digest, "print a scenario's trace digest", [spec])
    fuzz = leaf(validate, "fuzz", _validate_fuzz, "run sampled scenario specs under "
                "the oracle", [artifacts, as_json])
    fuzz.add_argument("--trials", type=_count, default=50, metavar="N",
                      help="number of sampled specs (default: 50)")
    fuzz.add_argument("--seed", type=int, default=0, metavar="S",
                      help="fuzzer seed; trials are deterministic per (seed, index)")
    replay = leaf(validate, "replay", _validate_replay, "re-run the spec of a fuzz "
                  "artifact, or of every artifact in a directory", [as_json])
    replay.add_argument("artifact", help="repro artifact (or bare spec) JSON file, "
                                         "or a directory of them")

    live = commands.add_parser(
        "live", help="run scenarios over real UDP: loopback runs, daemons, "
                     "sim/real differentials, sharded nodes"
    ).add_subparsers(dest="action", required=True)
    leaf(live, "run", _live_run, "run one scenario over loopback UDP under the oracle",
         [spec, speedup, as_json])
    daemon = leaf(live, "daemon", _live_daemon, "long-running session printing one "
                  "JSON metrics snapshot per line", [spec, speedup])
    daemon.add_argument("--interval", type=_positive, default=1000.0, metavar="MS",
                        help="virtual ms between snapshots (default: 1000)")
    daemon.add_argument("--snapshots", type=_count, default=None, metavar="N",
                        help="stop after N snapshots (default: the spec's full plan)")
    leaf(live, "diff", _live_diff, "run one scenario in sim and live and compare "
         "delivery digests", [spec, speedup, artifacts, as_json])
    node = leaf(live, "node", _live_node, "host a shard of the group "
                "(multi-process deployments)", [spec, speedup])
    node.add_argument("--nodes", required=True, type=_node_ids, metavar="IDS",
                      help="comma-separated member ids this process hosts")
    node.add_argument("--directory", required=True, metavar="FILE",
                      help="JSON file mapping every node id to [host, port]")
    node.add_argument("--bind", type=_address, default="127.0.0.1:0", metavar="HOST:PORT",
                      help="address to bind (default: 127.0.0.1:0)")
    node.add_argument("--hold", type=_non_negative, default=0.0, metavar="SECONDS",
                      help="real seconds between binding and starting virtual "
                           "time, so every shard's clock lines up (default: 0)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """The ``rrmp`` entry point; returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except UsageError as error:
        print(f"error: {error.message}", file=sys.stderr)
        return 2
