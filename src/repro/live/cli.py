"""The ``live`` CLI subcommand: real-UDP runs of declarative scenarios.

Wired into the ``rrmp`` entry point::

    rrmp live run wan_burst_loss --speedup 4 --json
    rrmp live daemon steady_state --interval 500
    rrmp live diff initial_holders --speedup 2 --artifacts out/
    rrmp live node spec.json --nodes 0,1,2 --directory dir.json

Every action takes the shared ``scenario`` / ``--seed`` / ``--param``
group of :mod:`repro.scenario.cli` (a registered name or a spec JSON
file).  ``run`` materializes one scenario over loopback UDP and prints its
summary; ``daemon`` keeps a session alive and emits one JSON metrics
snapshot per line at a fixed virtual interval (buffer occupancy,
long-term count, recovery latency, goodput); ``diff`` runs the
sim/real differential harness and fails on digest mismatch or oracle
violations; ``node`` hosts a shard of the group — the member ids in
``--nodes`` — using a directory file mapping every node id to its
owner's ``[host, port]`` (one ``node`` process per shard makes a
multi-process deployment).

Exit codes: 0 = clean, 1 = violations or digest mismatch, 2 = usage
error — including a spec node the session cannot honour (named in the
message), e.g. churn or mobility on a sharded ``node``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import Dict, Set

from repro.live.differential import run_differential
from repro.live.session import LiveSession, run_spec_live
from repro.metrics.runreport import RunReport
from repro.live.transport import Address
from repro.net.topology import NodeId
from repro.scenario.cli import add_spec_arguments, spec_from_args
from repro.scenario.spec import ScenarioSpec
from repro.validate.oracle import InvariantOracle


def add_live_parser(commands) -> None:
    """Attach the ``live`` subcommand tree to *commands*."""
    parser = commands.add_parser(
        "live",
        help="run scenarios over real UDP: loopback runs, daemons, "
             "sim/real differentials, sharded nodes",
    )
    actions = parser.add_subparsers(dest="live_command", required=True)

    run = actions.add_parser(
        "run", help="run one scenario over loopback UDP under the oracle",
    )
    _add_common(run)
    run.add_argument("--json", action="store_true", dest="as_json",
                     help="print the summary as JSON")

    daemon = actions.add_parser(
        "daemon", help="long-running session emitting JSON metrics "
                       "snapshots, one per line",
    )
    _add_common(daemon)
    daemon.add_argument("--interval", type=float, default=1000.0, metavar="MS",
                        help="virtual ms between snapshots (default: 1000)")
    daemon.add_argument("--snapshots", type=int, default=None, metavar="N",
                        help="stop after N snapshots (default: run the "
                             "spec's full measurement plan)")

    diff = actions.add_parser(
        "diff", help="run one scenario in sim and live, compare "
                     "normalized delivery digests",
    )
    _add_common(diff)
    diff.add_argument("--json", action="store_true", dest="as_json",
                      help="print the full differential report as JSON")
    diff.add_argument("--artifacts", default=None, metavar="DIR",
                      help="on failure, write the report JSON into DIR")

    node = actions.add_parser(
        "node", help="host a shard of the group (multi-process deployments)",
    )
    _add_common(node)
    node.add_argument("--nodes", required=True, metavar="IDS",
                      help="comma-separated member ids this process hosts")
    node.add_argument("--directory", required=True, metavar="FILE",
                      help="JSON file mapping every node id to [host, port]")
    node.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                      help="address to bind (default: 127.0.0.1:0)")
    node.add_argument("--hold", type=float, default=0.0, metavar="SECONDS",
                      help="real seconds to wait after binding before "
                           "virtual time starts; start every shard "
                           "within this window so their clocks line up "
                           "(default: 0, start immediately)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    add_spec_arguments(parser)
    parser.add_argument("--speedup", type=float, default=1.0,
                        help="virtual-to-real time ratio (default: 1.0; "
                             "higher is faster but needs CPU headroom)")


def main_live(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``live`` invocation; returns the exit code."""
    spec = spec_from_args(args)
    if spec is None:
        return 2
    if not 0 < args.speedup < float("inf"):  # also refuses nan
        print("error: --speedup must be finite and > 0", file=sys.stderr)
        return 2
    command = {"run": _cmd_run, "daemon": _cmd_daemon, "diff": _cmd_diff,
               "node": _cmd_node}[args.live_command]
    try:
        return command(spec, args)
    except ValueError as error:
        # The session refuses, by name, spec nodes it cannot honour.
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_run(spec: ScenarioSpec, args: argparse.Namespace) -> int:
    oracle = InvariantOracle()
    session = asyncio.run(run_spec_live(spec, speedup=args.speedup,
                                        oracle=oracle))
    summary = session.summary()
    report = RunReport(
        kind="live", scenario=spec.name, seed=spec.seed,
        metrics=summary, oracle=oracle.report_dict(),
        failed=(oracle.violation_count > 0
                or summary["reliability_violations"] > 0),
    )
    if args.as_json:
        print(report.to_json())
        return report.exit_code
    print(f"== live {spec.name} (seed {spec.seed}, "
          f"speedup {args.speedup:g}) ==")
    for key in ("members", "alive_members", "messages", "delivered_fraction",
                "recoveries", "mean_recovery_latency_ms",
                "reliability_violations", "control_messages",
                "data_messages", "send_dropped", "time_ms"):
        print(f"  {key.replace('_', ' ').ljust(26)} {summary[key]}")
    print(f"  oracle violations          {oracle.violation_count}")
    return report.exit_code


def _cmd_daemon(spec: ScenarioSpec, args: argparse.Namespace) -> int:
    if args.interval <= 0:
        print("error: --interval must be > 0", file=sys.stderr)
        return 2

    async def _daemon() -> int:
        session = LiveSession(spec, speedup=args.speedup)
        await session.start()
        runner = asyncio.ensure_future(session.run())
        emitted = 0
        previous = None
        try:
            while not runner.done():
                await session.sim.sleep(args.interval)
                previous = session.snapshot(previous)
                print(json.dumps(previous.to_dict()), flush=True)
                emitted += 1
                if args.snapshots is not None and emitted >= args.snapshots:
                    break
            if runner.done():
                runner.result()  # surface run() errors
        finally:
            runner.cancel()
            await session.close()
        return 1 if session.violation_count() > 0 else 0

    try:
        return asyncio.run(_daemon())
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        return 0


def _cmd_diff(spec: ScenarioSpec, args: argparse.Namespace) -> int:
    result = run_differential(spec, speedup=args.speedup)
    report = result.to_dict()
    if args.as_json:
        print(json.dumps(report))
    else:
        print(f"== diff {spec.name} (seed {result.seed}, "
              f"speedup {args.speedup:g}) ==")
        print(f"  sim  digest {result.sim.digest[:16]}  "
              f"delivered={len(result.sim.delivered)} "
              f"violations={len(result.sim.violations)} "
              f"oracle={result.sim.oracle_violations}")
        print(f"  live digest {result.live.digest[:16]}  "
              f"delivered={len(result.live.delivered)} "
              f"violations={len(result.live.violations)} "
              f"oracle={result.live.oracle_violations}")
        print("  MATCH" if result.digests_match else "  DIGEST MISMATCH")
    if not result.ok and args.artifacts is not None:
        os.makedirs(args.artifacts, exist_ok=True)
        path = os.path.join(
            args.artifacts,
            f"diff_{spec.name}_{result.spec_digest[:12]}.json",
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"  artifact: {path}", file=sys.stderr)
    return 0 if result.ok else 1


def _parse_nodes(text: str) -> Set[NodeId]:
    try:
        return {int(part) for part in text.split(",") if part.strip()}
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--nodes expects comma-separated integers, got {text!r}")


def _parse_bind(text: str) -> Address:
    host, _, port = text.rpartition(":")
    if not host:
        raise ValueError(f"--bind expects HOST:PORT, got {text!r}")
    return (host, int(port))


def _load_directory(path: str) -> Dict[NodeId, Address]:
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    return {int(node): (str(addr[0]), int(addr[1]))
            for node, addr in raw.items()}


def _cmd_node(spec: ScenarioSpec, args: argparse.Namespace) -> int:
    try:
        nodes = _parse_nodes(args.nodes)
        bind = _parse_bind(args.bind)
        directory = _load_directory(args.directory)
    except (OSError, ValueError, argparse.ArgumentTypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    missing = nodes - set(directory)
    if missing:
        print(f"error: --nodes {sorted(missing)} absent from the directory",
              file=sys.stderr)
        return 2

    async def _node() -> int:
        session = LiveSession(spec, speedup=args.speedup, local_nodes=nodes,
                              directory=directory, bind=bind,
                              hold=args.hold > 0)
        try:
            address = await session.start()
            print(json.dumps({"bound": list(address),
                              "nodes": sorted(nodes)}), flush=True)
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
        return asyncio.run(_node())
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        return 0


__all__ = ["add_live_parser", "main_live"]
