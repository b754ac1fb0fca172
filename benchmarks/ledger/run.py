"""Run one ledger workload and print its metrics.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

This is the command ``BENCHMARK.json`` names.  It prints every metric by
name with its unit, then, as the last line of standard output, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

The process started here only orchestrates.  It starts the workload in
a child process of its own (so ``peak_rss_mb`` is that workload's and
nothing else's), and before that, for ``--trace 0``, a few children
that only set up, whose start-to-ready times give ``setup_s`` as a
median.  Everything runs sequentially and single-threaded.  The three
time metrics are in calibrated seconds (see ``clock.py``), except the
wall time of a paced body.

``attempted`` counts the checks made on the program's outputs (delivery
floors, conservation, oracle violations, golden digests and expected
values at seed 0, traced-equals-untraced) and ``failed`` those that did
not hold.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: Children that only set up, besides the measuring child's own set-up.
SETUP_PROBES = 4
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170


def declared() -> Dict[str, Any]:
    """The benchmark contract: workloads, metric names, units."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values: List[float]) -> List[float]:
    """First quartile, median, third quartile (all equal for one value)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# ----------------------------------------------------------------------
# The measuring child
# ----------------------------------------------------------------------
def _body_record(body: Any, seed: int, traced: bool) -> Dict[str, Any]:
    return {"seed": seed, "traced": traced, **body.watch.timings(),
            "stats": body.stats, "digests": body.digests, "counts": body.counts,
            "timed": body.timed}


def _expected_checks(workload: str, body: Any) -> List[Any]:
    from benchmarks.ledger.workloads import Check

    expected = json.loads((LEDGER_DIR / "expected.json").read_text(encoding="utf-8"))
    wanted = expected.get(workload, {})
    return [
        Check(f"expected {key}", key in wanted and wanted[key] == value,
              f"got {value!r}, expected {wanted.get(key, 'nothing: re-bless')!r}")
        for key, value in body.stats.items()
    ]


def _traced_metrics(tracers: List[Any], bodies: List[Any], cpu_s: List[float]) -> Dict[str, Any]:
    """Per-layer values that only the traced pass can give."""
    from benchmarks.ledger import spans

    hooks = (".on_receive", ".on_request", ".on_serve")
    per_body: List[Dict[str, float]] = []
    for tracer, body in zip(tracers, bodies):
        loss_self = sum(entry[2] for (name, _), entry in tracer.aggregates.items()
                        if name.endswith(".is_lost")) / 1e9
        send_self = tracer.self_s("net:Network.unicast", "net:Network.multicast")
        oracle_self = tracer.self_s("validate:")
        builds = tracer.count("scenario:build_scenario")
        build_s = tracer.total_s("scenario:build_scenario")
        packets = body.counts.get("net.packets_sent", 0)
        checked = body.counts.get("validate.records_checked", 0)
        per_body.append({
            "sim.self_s": tracer.self_s("sim:"),
            "sim.trace_emit_self_s": tracer.self_s("sim.tracing:"),
            "net.send_self_s": send_self,
            "net.loss_model_self_s": loss_self,
            "net.us_per_packet": (send_self + loss_self) * 1e6 / max(1, packets),
            "protocol.on_packet_self_s": tracer.self_s("protocol:RrmpMember.on_packet"),
            "core.policy_self_s": tracer.self_s("core:"),
            "validate.oracle_self_s": oracle_self,
            "validate.us_per_record": oracle_self * 1e6 / max(1, checked),
            "metrics.subscribers_self_s": tracer.self_s("metrics:subscriber:"),
            "scenario.build_s": build_s,
            "scenario.ms_per_build": build_s * 1e3 / max(1, builds),
            "cc.driver_self_s": tracer.self_s("cc:"),
        })
    values: Dict[str, Any] = {
        key: statistics.median(row[key] for row in per_body) for key in per_body[0]
    }
    first = tracers[0]
    values.update({
        "net.unicast_calls": first.count("net:Network.unicast"),
        "net.multicast_calls": first.count("net:Network.multicast"),
        "protocol.on_packet_calls": first.count("protocol:RrmpMember.on_packet"),
        "core.policy_calls": sum(entry[0] for (name, _), entry in first.aggregates.items()
                                 if name.endswith(hooks)),
        "scenario.builds": first.count("scenario:build_scenario"),
    })
    # No span, no time: the layer did not run on this workload.
    values = {key: value for key, value in values.items() if value}
    # Shares of the first traced body.  The root span's self time is what
    # no layer claims.  The time the process slept (wall minus CPU: the
    # live event loop waiting for its next timer) is nobody's work and is
    # taken out of the span it was spent in.
    layers = first.layer_self_s()
    idle = max(0.0, first.total_s("bench:") - cpu_s[0])
    sleeper = "asyncio" if "asyncio" in layers else spans.ROOT_LAYER
    layers[sleeper] = max(0.0, layers[sleeper] - idle)
    layers["unattributed"] = layers.pop(spans.ROOT_LAYER)
    whole = sum(layers.values())
    values["shares"] = {layer: seconds / whole for layer, seconds in layers.items()}
    values["trace.unattributed_frac"] = values["shares"]["unattributed"]
    return values


def set_up(workload_name: str, smoke: bool,
           spawned: float) -> Tuple[Any, float, Dict[str, float]]:
    """Everything before the first timed body; returns the workload, the
    import time and the seconds since the parent started this process."""
    from benchmarks.ledger.clock import REFERENCE_SLICE_S, Stopwatch

    with Stopwatch() as watch:
        started = time.perf_counter()
        import repro.scenario  # noqa: F401 - timed: most of the package hangs off it
        import_s = time.perf_counter() - started

        from benchmarks.ledger.workloads import WORKLOADS

        workload = WORKLOADS[workload_name](smoke=smoke)
        workload.setup()
    # From the parent's clock, so interpreter start-up is in; the host-speed
    # slices taken on the way are not.
    setup_s = time.time() - spawned - sum(watch.wall_slices)
    return workload, import_s, {
        "setup_s": setup_s,
        "calibrated_setup_s": setup_s * REFERENCE_SLICE_S / statistics.fmean(watch.wall_slices),
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            spawned: float, results: Path) -> Dict[str, Any]:
    """The child's whole job: set up, run bodies for *seconds*, collect."""
    from benchmarks.ledger import micro, spans
    from benchmarks.ledger.workloads import Check

    workload, import_s, setup = set_up(workload_name, smoke, spawned)

    untraced: List[Any] = []
    traced: List[Any] = []
    tracers: List[Any] = []
    traced_cpu: List[float] = []
    checks: List[Any] = []
    records: List[Dict[str, Any]] = []
    peak_rss_mb = 0.0
    began = time.perf_counter()
    index = 0
    while index == 0 or (not smoke and time.perf_counter() - began < seconds):
        body_seed = seed * 1000 + index
        gc.collect()
        body = workload.collect(workload.run(body_seed))
        if index == 0:
            # Read after the first body, so the figure does not depend on
            # how many bodies fit the window on this host.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        untraced.append(body)
        checks += body.checks
        records.append(_body_record(body, body_seed, traced=False))
        if trace:
            gc.collect()
            tracer = spans.Tracer()
            with spans.installed(tracer):
                cpu = time.process_time()
                run = tracer.call("bench:body", spans.ROOT_LAYER, workload.run, body_seed)
                traced_cpu.append(time.process_time() - cpu)
            twin = workload.collect(run, tracer.recoveries)
            tracers.append(tracer)
            traced.append(twin)
            records.append(_body_record(twin, body_seed, traced=True))
            shared = [key for key in body.stats if key in twin.stats]
            checks.append(Check(
                f"seed {body_seed}: traced pass leaves statistics and digests unchanged",
                all(body.stats[key] == twin.stats[key] for key in shared)
                and body.digests == twin.digests,
                f"{len(shared)} statistics, {len(body.digests)} digests"))
        if body_seed == 0 and not smoke:
            checks += _expected_checks(workload_name, traced[0] if trace else body)
        index += 1

    walls = [body.watch.wall_s for body in untraced]
    cpus = [body.watch.cpu_s for body in untraced]
    first = traced[0] if trace else untraced[0]
    layer: Dict[str, Any] = {
        key: value for key, value in first.stats.items() if isinstance(value, (int, float))
    }
    layer.update(first.counts)
    for key in untraced[0].timed:
        layer[key] = statistics.median(body.timed[key] for body in untraced)
    if "sim.events_fired" in first.counts:
        layer["sim.events_per_s"] = statistics.median(
            body.counts["sim.events_fired"] / body.watch.wall_s for body in untraced)
    layer["scenario.import_s"] = import_s
    layer["raw.wall_s"] = statistics.median(walls)
    layer["raw.cpu_s"] = statistics.median(cpus)
    layer["calib.slice_s"] = statistics.median(
        statistics.fmean(body.watch.wall_slices) for body in untraced)
    shares: Dict[str, float] = {}
    if trace:
        values = _traced_metrics(tracers, traced, traced_cpu)
        shares = values.pop("shares")
        layer.update(values)
        layer["trace.overhead_frac"] = statistics.median(
            twin.watch.cpu_s / body.watch.cpu_s for twin, body in zip(traced, untraced)) - 1.0
        layer.update(micro.run_all(0.02 if smoke else 1.0))
        layer["calib.wall_norm"] = (
            statistics.median(walls) * layer["sim.raw_loop_events_per_s"] / 1e6)
        if "scale.us_per_member_delivery" in layer:
            layer["scale.stream_length_penalty"] = (
                layer["scale.us_per_member_delivery"] / layer["scale.us_per_member_delivery_10"])
        results.mkdir(parents=True, exist_ok=True)
        trace_file = results / f"trace_{workload_name}.json"
        trace_file.write_text(json.dumps(tracers[0].to_dict()), encoding="utf-8")
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "note": workload.note,
        "samples": {"wall_s": [body.watch.calibrated_wall_s for body in untraced],
                    "cpu_s": [body.watch.calibrated_cpu_s for body in untraced],
                    "setup_s": [setup["calibrated_setup_s"]],
                    "peak_rss_mb": [peak_rss_mb]},
        "raw": {"wall_s": walls, "cpu_s": cpus, "setup_s": [setup["setup_s"]]},
        "per_layer": layer,
        "shares": shares,
        "attempted": len(checks),
        "failed_checks": [
            {"name": check.name, "detail": check.detail} for check in checks if not check.ok],
        "bodies": records,
    }


# ----------------------------------------------------------------------
# The orchestrating parent
# ----------------------------------------------------------------------
def _child(arguments: List[str]) -> Dict[str, Any]:
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--spawned", repr(time.time()), *arguments]
    finished = subprocess.run(command, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                              check=True, text=True)
    return json.loads(finished.stdout.splitlines()[-1])


def hygiene() -> Dict[str, Any]:
    """What a reader needs to judge whether two runs are comparable."""
    try:
        sha = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "load_1min": os.getloadavg()[0],
            "unix_time": time.time()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 results: Path) -> Dict[str, Any]:
    """Probe set-up, measure in a child, and name every declared metric."""
    contract = declared()
    if workload not in {entry["name"] for entry in contract["workloads"]}:
        raise SystemExit(f"unknown workload {workload!r}")
    arguments = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
                 "--trace", str(int(trace)), "--results", str(results)]
    if smoke:
        arguments.append("--smoke")
    start = hygiene()
    if start["load_1min"] > (start["nproc"] or 1) / 2:
        print(f"warning: 1-minute load {start['load_1min']:.2f} is above nproc/2; "
              "timings will be noisy", file=sys.stderr)
    probes: List[Dict[str, float]] = []
    if not trace and not smoke:
        probes = [_child(arguments + ["--setup-only"]) for _ in range(SETUP_PROBES)]
    detail = _child(arguments)
    detail["hygiene"] = start
    detail["raw"]["setup_s"] = [probe["setup_s"] for probe in probes] + detail["raw"]["setup_s"]
    samples = detail["samples"]
    samples["setup_s"] = ([probe["calibrated_setup_s"] for probe in probes]
                          + samples["setup_s"])
    detail["end_to_end"] = {
        metric["name"]: {"value": statistics.median(samples[metric["name"]]),
                         "unit": metric["unit"],
                         "quartiles": quartiles(samples[metric["name"]]),
                         "samples": len(samples[metric["name"]])}
        for metric in contract["end_to_end"]
    }
    # Only what this workload's layers produced: a layer that does not run
    # has no number, and a 0 would read as a perfect one.
    computed = detail["per_layer"]
    detail["per_layer"] = {
        metric["name"]: {"value": computed[metric["name"]], "unit": metric["unit"]}
        for metric in contract["per_layer"] if metric["name"] in computed
    }
    detail["failed"] = len(detail["failed_checks"])
    detail["correct"] = detail["failed"] == 0
    detail["failed_fraction"] = detail["failed"] / detail["attempted"]
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}.trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    return detail


def report(detail: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the layer shares."""
    trace = detail["trace"]
    print(f"== {detail['workload']}  seed {detail['seed']}  "
          f"{len(detail['samples']['wall_s'])} bodies in {detail['seconds']:g} s  "
          f"trace {'on' if trace else 'off'} ==")
    if detail["note"]:
        print(detail["note"])
    if not trace:
        for name, metric in detail["end_to_end"].items():
            low, _, high = metric["quartiles"]
            raw = detail["raw"].get(name)
            print(f"{name:<14} {metric['value']:>12.6g} {metric['unit']:<3} "
                  f"quartiles {low:.6g}..{high:.6g}  n={metric['samples']}"
                  + (f"  (uncalibrated median {statistics.median(raw):.6g})" if raw else ""))
    else:
        for metric in declared()["per_layer"]:
            name, computed = metric["name"], detail["per_layer"].get(metric["name"])
            value = f"{computed['value']:>16.6g}" if computed else f"{'not run':>16}"
            print(f"{name:<44} {value} {metric['unit']}")
        print("share of the traced body's busy time, by layer (self time):")
        for layer, share in sorted(detail["shares"].items(), key=lambda item: -item[1]):
            print(f"  {layer:<16} {share:7.1%}")
    print(f"failed_fraction {detail['failed_fraction']:.6g} "
          f"({detail['failed']} of {detail['attempted']} checks)")
    for check in detail["failed_checks"]:
        print(f"FAILED {check['name']}: {check['detail']}")


def result_line(detail: Dict[str, Any]) -> str:
    """The one JSON object the benchmark contract asks for.

    The contract wants every per-layer metric in every traced result, so
    here, and only here, a metric of a layer this workload does not run
    is written as 0.
    """
    if detail["trace"]:
        metrics = {metric["name"]: {"value": 0.0, "unit": metric["unit"]}
                   for metric in declared()["per_layer"]}
        metrics.update(detail["per_layer"])
    else:
        metrics = detail["end_to_end"]
    return json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in metrics.items()},
    })


def parser() -> argparse.ArgumentParser:
    parse = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parse.add_argument("--workload", required=True)
    parse.add_argument("--seed", type=int, default=0)
    parse.add_argument("--seconds", type=float, default=None,
                       help="how long to measure (default: run_seconds of BENCHMARK.json)")
    parse.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parse.add_argument("--smoke", action="store_true",
                       help="one body at sizes of a fraction of a second")
    parse.add_argument("--results", type=Path, default=LEDGER_DIR / "results")
    parse.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parse.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    parse.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parse


def main(argv: Optional[List[str]] = None) -> int:
    args = parser().parse_args(argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else declared()["run_seconds"]
    if args.child:
        if args.setup_only:
            print(json.dumps(set_up(args.workload, args.smoke, args.spawned)[2]))
        else:
            print(json.dumps(measure(args.workload, args.seed, seconds, bool(args.trace),
                                     args.smoke, args.spawned, args.results)))
        return 0
    detail = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke,
                          args.results)
    report(detail)
    print(result_line(detail))
    return 0


if __name__ == "__main__":
    sys.exit(main())
