"""The perf ledger: every workload, one command.

    PYTHONPATH=src python -m benchmarks.ledger --all [--seed N] [--seconds S] [--trace]
    PYTHONPATH=src python -m benchmarks.ledger --workload NAME [...]
    PYTHONPATH=src python -m benchmarks.ledger compare A.json B.json
    PYTHONPATH=src python -m benchmarks.ledger bless

``--all`` runs the six workloads one after another, each through
``run.py`` (so each in a process of its own), prints every metric by
name with its unit, writes ``results/ledger.json`` and exits non-zero
if any check on the program's outputs failed.  ``--trace`` adds the
traced pass and its per-layer numbers.  ``compare`` applies the bounds
of ``BENCHMARK.json`` to two such files.  ``bless`` rewrites
``expected.json`` from a seed-0 run, for a change that means to alter
simulated behaviour.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.ledger import run

#: Absolute rise in ``failed_fraction`` that counts as a regression.
FAILED_FRACTION_BOUND = 0.001


def run_all(workloads: List[str], seed: int, seconds: float, trace: bool, smoke: bool,
            results: Path) -> Dict[str, Any]:
    ledger: Dict[str, Any] = {"hygiene": run.hygiene(), "seed": seed, "seconds": seconds,
                              "smoke": smoke, "workloads": {}}
    for name in workloads:
        entry: Dict[str, Any] = {}
        for traced in ([False, True] if trace else [False]):
            detail = run.run_workload(name, seed, seconds, traced, smoke, results)
            run.report(detail)
            key = "traced" if traced else "untraced"
            entry[key] = {field: detail[field] for field in (
                "samples", "raw", "attempted", "failed", "failed_fraction", "failed_checks",
                "bodies", "shares")}
            entry[key]["metrics"] = detail["per_layer"] if traced else detail["end_to_end"]
        ledger["workloads"][name] = entry
    results.mkdir(parents=True, exist_ok=True)
    (results / "ledger.json").write_text(json.dumps(ledger, indent=1), encoding="utf-8")
    return ledger


def _verdict(metric: Dict[str, Any], before: List[float], after: List[float]) -> str:
    """same / regressed / improved, or unresolved when either side's
    own quartile spread is wider than the bound."""
    old, new = statistics.median(before), statistics.median(after)
    spread = max(
        (quarters[2] - quarters[0]) / middle
        for quarters, middle in ((run.quartiles(before), old), (run.quartiles(after), new)))
    if spread > metric["bound"]:
        return "unresolved"
    worse = (new - old) / old if metric["better"] == "lower" else (old - new) / old
    if worse > metric["bound"]:
        return "regressed"
    return "improved" if worse < -metric["bound"] else "same"


def compare(before_path: Path, after_path: Path) -> int:
    """One row per workload, one verdict per end-to-end metric."""
    before = json.loads(before_path.read_text(encoding="utf-8"))["workloads"]
    after = json.loads(after_path.read_text(encoding="utf-8"))["workloads"]
    metrics = run.declared()["end_to_end"]
    print(f"{'workload':<16}" + "".join(f"{metric['name']:>14}" for metric in metrics)
          + f"{'failed_fraction':>18}")
    regressed = False
    for name in before:
        if name not in after:
            continue
        old, new = before[name]["untraced"], after[name]["untraced"]
        verdicts = [_verdict(metric, old["samples"][metric["name"]],
                             new["samples"][metric["name"]]) for metric in metrics]
        rise = new["failed_fraction"] - old["failed_fraction"]
        verdicts.append("regressed" if rise > FAILED_FRACTION_BOUND else "same")
        regressed = regressed or "regressed" in verdicts
        print(f"{name:<16}" + "".join(f"{verdict:>14}" for verdict in verdicts[:-1])
              + f"{verdicts[-1]:>18}")
    return 1 if regressed else 0


def bless(results: Path) -> int:
    """Record the seed-0 simulated statistics as the expected ones."""
    expected: Dict[str, Any] = {}
    for entry in run.declared()["workloads"]:
        detail = run.run_workload(entry["name"], 0, 0.0, True, False, results)
        stats = next(body["stats"] for body in detail["bodies"]
                     if body["traced"] and body["seed"] == 0)
        if stats:
            expected[entry["name"]] = stats
    (run.LEDGER_DIR / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote expected values for {', '.join(expected)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parse = argparse.ArgumentParser(prog="benchmarks.ledger compare")
        parse.add_argument("before", type=Path)
        parse.add_argument("after", type=Path)
        args = parse.parse_args(argv[1:])
        return compare(args.before, args.after)
    parse = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__.splitlines()[0])
    parse.add_argument("command", nargs="?", choices=("bless",))
    parse.add_argument("--all", action="store_true", help="run every workload")
    parse.add_argument("--workload", action="append", default=[])
    parse.add_argument("--seed", type=int, default=0)
    parse.add_argument("--seconds", type=float, default=None)
    parse.add_argument("--trace", action="store_true", help="add the traced per-layer pass")
    parse.add_argument("--smoke", action="store_true")
    parse.add_argument("--results", type=Path, default=run.LEDGER_DIR / "results")
    args = parse.parse_args(argv)
    if args.command == "bless":
        return bless(args.results)
    contract = run.declared()
    workloads = args.workload or [entry["name"] for entry in contract["workloads"]]
    if not (args.all or args.workload):
        parse.error("give --all, --workload NAME, compare or bless")
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    ledger = run_all(workloads, args.seed, seconds, args.trace, args.smoke, args.results)
    failed = sum(entry[key]["failed"] for entry in ledger["workloads"].values() for key in entry)
    print(f"wrote {args.results / 'ledger.json'}; {failed} failed checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
