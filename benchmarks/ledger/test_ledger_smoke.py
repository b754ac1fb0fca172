"""Smoke test of the perf ledger at ``--smoke`` sizes.

Runs every workload once through ``run.py`` with the traced pass on (a
traced run also makes the untraced body, so both metric sets exist) and
checks the contract a later issue relies on: every metric
``BENCHMARK.json`` declares is emitted, names and counts stay inside
the contract's limits, and tracing leaves the simulated statistics and
trace digests exactly as the untraced pass produced them.  No timing is
asserted.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
CONTRACT = json.loads((LEDGER.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_contract_shape() -> None:
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = WORKLOADS + [metric["name"] for key in ("end_to_end", "per_layer")
                         for metric in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(metric["name"] == "setup_s" for metric in CONTRACT["end_to_end"])
    assert all(metric["bound"] <= 0.25 for metric in CONTRACT["end_to_end"])


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory: pytest.TempPathFactory) -> dict:
    results = tmp_path_factory.mktemp("ledger")
    # Started together: they are independent and mostly wait on imports.
    started = {
        workload: subprocess.Popen(
            [sys.executable, str(LEDGER / "run.py"), "--workload", workload, "--smoke",
             "--trace", "1", "--results", str(results)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for workload in WORKLOADS
    }
    runs = {}
    try:
        for workload, process in started.items():
            stdout, stderr = process.communicate(timeout=120)
            assert process.returncode == 0, stderr
            runs[workload] = (
                json.loads(stdout.splitlines()[-1]),
                json.loads((results / f"{workload}.trace1.json").read_text(encoding="utf-8")),
                json.loads((results / f"trace_{workload}.json").read_text(encoding="utf-8")),
            )
    finally:
        for process in started.values():
            if process.poll() is None:
                process.kill()
                process.wait()
    return runs


def test_every_declared_metric_is_emitted(smoke_runs: dict) -> None:
    per_layer = {metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]}
    never_computed = set(per_layer)
    for workload, (line, detail, _) in smoke_runs.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        assert {name: metric["unit"] for name, metric in line["metrics"].items()} == per_layer
        for metric in CONTRACT["end_to_end"]:
            emitted = detail["end_to_end"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert emitted["value"] > 0, (workload, metric["name"])
        assert set(detail["per_layer"]) <= set(per_layer)
        never_computed -= set(detail["per_layer"])
    # A layer that does not run on a workload has no number there (0 in the
    # contract line only), but every metric has one on some workload.
    assert not never_computed


def test_tracing_leaves_simulated_output_unchanged(smoke_runs: dict) -> None:
    for workload, (line, detail, trace) in smoke_runs.items():
        if workload != "live_loopback":  # its checks depend on real time
            assert line["correct"] and line["failed"] == 0, detail["failed_checks"]
        untraced, traced = detail["bodies"]
        assert not untraced["traced"] and traced["traced"]
        assert untraced["digests"] == traced["digests"]
        for key, value in untraced["stats"].items():
            assert traced["stats"][key] == value, (workload, key)
        assert trace["raw_spans"][0]["name"] == "bench:body"
        assert abs(sum(detail["shares"].values()) - 1.0) < 1e-9
