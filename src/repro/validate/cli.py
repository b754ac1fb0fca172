"""The ``validate`` CLI subcommand: oracle runs, fuzzing, replays.

Wired into the ``rrmp`` entry point::

    rrmp validate run scale --json
    rrmp validate fuzz --trials 200 --seed 0 --artifacts out/
    rrmp validate replay out/repro_000042_ab12cd34ef56.json
    rrmp validate replay out/   # every artifact, summarized
    rrmp validate digest wan_burst_loss

``run`` executes one registered scenario (or a spec JSON file, resolved
like every subcommand's — see :mod:`repro.scenario.cli`) with the
invariant oracle attached; ``fuzz`` samples random specs (see
:mod:`repro.validate.fuzz`); ``replay`` re-runs the spec stored in a
repro artifact; ``digest`` prints a scenario's trace digest (what the
golden baselines under ``tests/baselines/`` pin).  Like ``scenarios
run``, ``run`` and ``digest`` put flat-tier names on the flat engine.

Exit codes: 0 = clean, 1 = invariant violations (or a crashing spec),
2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.metrics.runreport import RunReport
from repro.scenario.cli import add_spec_arguments, spec_from_args
from repro.scenario.registry import scenario_names
from repro.scenario.spec import ScenarioSpec
from repro.sim.tracing import trace_digest
from repro.validate.fuzz import TrialOutcome, load_artifact_spec, run_fuzz, run_spec


def add_validate_parser(commands) -> None:
    """Attach the ``validate`` subcommand tree to *commands*."""
    parser = commands.add_parser(
        "validate",
        help="check protocol invariants: oracle runs, scenario fuzzing, replays",
    )
    actions = parser.add_subparsers(dest="validate_command", required=True)

    run = actions.add_parser(
        "run", help="run one scenario (registry name or spec JSON file) "
                    "under the invariant oracle",
    )
    add_spec_arguments(run)
    run.add_argument("--json", action="store_true", dest="as_json",
                     help="print the oracle report as JSON")

    fuzz = actions.add_parser(
        "fuzz", help="sample random scenario specs and run each under the oracle",
    )
    fuzz.add_argument("--trials", type=int, default=50, metavar="N",
                      help="number of sampled specs to run (default: 50)")
    fuzz.add_argument("--seed", type=int, default=0, metavar="S",
                      help="fuzzer seed; trials are deterministic per "
                           "(seed, index) (default: 0)")
    fuzz.add_argument("--artifacts", default=None, metavar="DIR",
                      help="write a repro artifact per failure into DIR")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="skip spec minimization on failure")
    fuzz.add_argument("--json", action="store_true", dest="as_json",
                      help="print the fuzz report as JSON")

    replay = actions.add_parser(
        "replay", help="re-run the spec stored in a fuzz repro artifact "
                       "(or every artifact in a directory)",
    )
    replay.add_argument("artifact", help="path to a repro artifact (or bare "
                                         "spec) JSON file, or a directory "
                                         "of artifacts")
    replay.add_argument("--json", action="store_true", dest="as_json",
                        help="print the oracle report as JSON")

    digest = actions.add_parser(
        "digest", help="print a scenario's deterministic trace digest",
    )
    add_spec_arguments(digest)


def main_validate(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``validate`` invocation; returns the exit code."""
    command = args.validate_command
    if command == "fuzz":
        return _cmd_fuzz(args)
    if command == "replay":
        if os.path.isdir(args.artifact):
            return _replay_directory(args.artifact, as_json=args.as_json)
        try:
            spec = load_artifact_spec(args.artifact)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot load artifact {args.artifact!r}: {error}",
                  file=sys.stderr)
            return 2
        return _run_under_oracle(spec, as_json=args.as_json)
    # run / digest need a scenario lookup
    spec = spec_from_args(args)
    if spec is None:
        return 2
    flat = args.scenario in scenario_names("flat")
    if command == "digest":
        return _cmd_digest(spec, flat)
    return _run_under_oracle(spec, as_json=args.as_json, flat=flat)


def _run_flat_spec(spec: ScenarioSpec) -> TrialOutcome:
    """:func:`run_spec` on the flat engine, which reports the oracle's
    counts but not each violation."""
    from repro.scale.engine import run_flat

    result = run_flat(spec, digest=False, oracle=True)
    return TrialOutcome(spec=spec, violation_count=result.invariant_violations,
                        records_checked=result.oracle_records_checked,
                        events_fired=result.events_fired)


def _run_under_oracle(spec: ScenarioSpec, as_json: bool, flat: bool = False) -> int:
    outcome = _run_flat_spec(spec) if flat else run_spec(spec)
    report = RunReport(
        kind="validate", scenario=spec.name, seed=spec.seed,
        metrics={
            "scenario": spec.name,
            "seed": spec.seed,
            # The digest of the spec as the user named it — run_spec
            # forces measurement.oracle on internally, and that mutated
            # spec's digest would match neither `scenarios describe`
            # nor the spec file on disk.
            "digest": spec.digest(),
            "error": outcome.error,
            "violation_count": outcome.violation_count,
            "records_checked": outcome.records_checked,
            "events_fired": outcome.events_fired,
            "violations": outcome.violations,
        },
        failed=outcome.failed,
    )
    if as_json:
        print(report.to_json())
        return report.exit_code
    print(f"== validate {spec.name} (seed {spec.seed}) ==")
    print(f"  records checked      {outcome.records_checked}")
    print(f"  events fired         {outcome.events_fired}")
    print(f"  invariant violations {outcome.violation_count}")
    if outcome.error is not None:
        print(f"  CRASH: {outcome.error}")
    for violation in outcome.violations[:20]:
        print(f"  [{violation['invariant']}] t={violation['time']:g} "
              f"{violation['message']}")
    if outcome.violation_count > 20:
        print(f"  ... and {outcome.violation_count - 20} more")
    if not outcome.failed:
        print("  all invariants hold")
    return 1 if outcome.failed else 0


def _replay_directory(directory: str, as_json: bool) -> int:
    """Replay every ``*.json`` artifact under *directory*, summarize.

    Exit codes: 0 = every artifact replays clean, 1 = at least one
    still fails (or fails to load), 2 = no artifacts found.
    """
    paths = sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".json")
    )
    if not paths:
        print(f"error: no *.json artifacts in {directory!r}", file=sys.stderr)
        return 2
    results = []
    for path in paths:
        entry = {"artifact": path}
        try:
            spec = load_artifact_spec(path)
        except (OSError, ValueError, KeyError) as error:
            entry.update(status="load_error", error=str(error))
            results.append(entry)
            continue
        outcome = run_spec(spec)
        entry.update(
            status="fail" if outcome.failed else "ok",
            scenario=spec.name,
            seed=spec.seed,
            violation_count=outcome.violation_count,
            error=outcome.error,
        )
        results.append(entry)
    failed = [r for r in results if r["status"] != "ok"]
    report = RunReport(
        kind="validate", scenario=directory, seed=0,
        metrics={
            "directory": directory,
            "artifacts": len(results),
            "failures": len(failed),
            "results": results,
        },
        failed=bool(failed),
    )
    if as_json:
        print(report.to_json())
        return report.exit_code
    print(f"== replay {directory} ({len(results)} artifacts) ==")
    for entry in results:
        name = os.path.basename(entry["artifact"])
        if entry["status"] == "load_error":
            print(f"  LOAD ERROR  {name}: {entry['error']}")
        elif entry["status"] == "fail":
            detail = entry["error"] or f"{entry['violation_count']} violations"
            print(f"  FAIL        {name}  {entry['scenario']} "
                  f"(seed {entry['seed']}): {detail}")
        else:
            print(f"  ok          {name}  {entry['scenario']} "
                  f"(seed {entry['seed']})")
    print(f"  {len(results) - len(failed)}/{len(results)} replay clean")
    return 1 if failed else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2

    def progress(index: int, outcome) -> None:
        if not args.as_json:
            status = "FAIL" if outcome.failed else "ok"
            print(f"trial {index:4d}  {status:4s}  {outcome.spec.name}  "
                  f"records={outcome.records_checked}", file=sys.stderr)

    report = run_fuzz(
        trials=args.trials,
        seed=args.seed,
        artifact_dir=args.artifacts,
        minimize=not args.no_minimize,
        progress=progress,
    )
    if args.as_json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"== fuzz: {report.trials} trials, seed {report.seed} ==")
        print(f"  records checked   {report.records_checked}")
        print(f"  events fired      {report.events_fired}")
        print(f"  failing trials    {len(report.failures)}")
        for failure in report.failures:
            print(f"  trial {failure['trial_index']}: {failure['failure']} "
                  f"(digest {failure['digest'][:12]})")
        for path in report.artifacts:
            print(f"  artifact: {path}")
        if report.ok:
            print("  all invariants hold on every sampled scenario")
    return 0 if report.ok else 1


def _cmd_digest(spec: ScenarioSpec, flat: bool) -> int:
    if flat:
        from repro.scale.engine import run_flat

        result = run_flat(spec)
        digest, count = result.trace_digest, result.trace_records
    else:
        records = spec.build().run().simulation.trace.records
        digest, count = trace_digest(records), len(records)
    print(f"{digest}  {spec.name} (seed {spec.seed}, {count} records)")
    return 0
