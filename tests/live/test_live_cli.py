"""Tests for the ``live`` CLI subcommand."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.scenario.library import get_scenario


def small_spec():
    """The same 6-member chain used by the session tests."""
    spec = get_scenario("initial_holders")
    return spec.with_(
        name="live_cli_test",
        topology=dataclasses.replace(spec.topology, kind="chain", n=6,
                                     sizes=(3, 3)),
        traffic=dataclasses.replace(spec.traffic, kind="uniform", count=4,
                                    interval=20.0, start=10.0),
    )


def spec_path(tmp_path, spec=None, name="spec.json"):
    path = tmp_path / name
    path.write_text((spec or small_spec()).to_json())
    return str(path)


class TestLiveRun:
    def test_loopback_run_clean_exit(self, tmp_path, capsys):
        assert main(["live", "run", spec_path(tmp_path),
                     "--speedup", "20"]) == 0
        output = capsys.readouterr().out
        assert "live live_cli_test" in output
        assert re.search(r"^  oracle\.violation_count +0$", output, re.M)

    def test_json_payload(self, tmp_path, capsys):
        assert main(["live", "run", spec_path(tmp_path), "--speedup", "20",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "live"
        assert payload["delivered_fraction"] == 1.0
        assert payload["reliability_violations"] == 0
        assert payload["oracle"]["violation_count"] == 0

    def test_json_reports_the_named_spec_and_the_oracle(self, tmp_path, capsys):
        """The oracle is put on the run through the spec; the payload
        still carries the digest of the spec as named."""
        path = spec_path(tmp_path)
        assert main(["scenarios", "describe", path]) == 0
        described = capsys.readouterr().out.rsplit("digest:", 1)[1].strip()
        assert main(["live", "run", path, "--speedup", "20", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["digest"] == described == small_spec().digest()
        assert payload["oracle"]["records_checked"] > 0
        assert payload["oracle"]["violation_count"] == 0

    def test_seed_override(self, tmp_path, capsys):
        assert main(["live", "run", spec_path(tmp_path), "--speedup", "20",
                     "--seed", "7", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["live", "run", "no_such_scenario"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_speedup_is_a_usage_error(self, tmp_path, capsys):
        assert main(["live", "run", spec_path(tmp_path),
                     "--speedup", "0"]) == 2
        assert "--speedup" in capsys.readouterr().err

    @pytest.mark.parametrize("speedup", ["nan", "inf"])
    def test_nonfinite_speedup_is_a_usage_error(self, speedup, tmp_path, capsys):
        """``nan`` used to pass the ``<= 0`` check and hang the run;
        ``inf`` ran, reported ``time ms inf`` and exited 0."""
        assert main(["live", "run", spec_path(tmp_path),
                     "--speedup", speedup]) == 2
        assert "argument --speedup: must be finite and > 0" in capsys.readouterr().err


class TestLiveDaemon:
    def test_snapshot_lines_until_the_limit(self, tmp_path, capsys):
        assert main(["live", "daemon", spec_path(tmp_path), "--speedup", "20",
                     "--interval", "30", "--snapshots", "2"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.strip()]
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["alive_members"] == 6
        assert second["time_ms"] > first["time_ms"]
        assert "goodput_msgs_per_s" in first
        assert "long_term_buffered" in first

    def test_daemon_runs_spec_to_completion_without_a_limit(
            self, tmp_path, capsys):
        assert main(["live", "daemon", spec_path(tmp_path), "--speedup", "20",
                     "--interval", "40"]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines() if line.strip()]
        assert lines  # at least one snapshot before quiescence
        assert lines[-1]["delivered_total"] == 6 * 4
        assert lines[-1]["reliability_violations"] == 0

    def test_bad_interval_is_a_usage_error(self, tmp_path, capsys):
        assert main(["live", "daemon", spec_path(tmp_path),
                     "--interval", "0"]) == 2


#: Options a session would hang on (``inf``) or silently ignore
#: (``nan``, a snapshot count below 1).  Parsing alone must refuse
#: them, so nothing binds a socket or starts a clock.
_REFUSED_LIVE_OPTIONS = [
    ["daemon", "--interval", "inf"],
    ["daemon", "--interval", "nan"],
    ["daemon", "--snapshots", "0"],
    ["daemon", "--snapshots", "-1"],
    ["node", "--nodes", "0", "--directory", "dir.json", "--hold", "inf"],
    ["node", "--nodes", "0", "--directory", "dir.json", "--hold", "nan"],
    ["node", "--nodes", "0", "--directory", "dir.json", "--hold", "-1"],
]


@pytest.mark.parametrize("argv", _REFUSED_LIVE_OPTIONS, ids=" ".join)
def test_refused_live_option_fails_to_parse(argv):
    with pytest.raises(SystemExit) as raised:
        build_parser().parse_args(["live", argv[0], "initial_holders", *argv[1:]])
    assert raised.value.code == 2


@pytest.mark.parametrize("argv", _REFUSED_LIVE_OPTIONS[::3], ids=" ".join)
def test_refused_live_option_exits_2_with_one_error_line(argv, capsys):
    assert main(["live", argv[0], "initial_holders", "--speedup", "4", *argv[1:]]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: argument --")


def test_zero_hold_still_means_no_hold():
    args = build_parser().parse_args(["live", "node", "initial_holders", "--nodes", "0",
                                      "--directory", "dir.json", "--hold", "0"])
    assert args.hold == 0.0


class TestLiveDiff:
    def test_matching_differential_exits_zero(self, tmp_path, capsys):
        assert main(["live", "diff", spec_path(tmp_path),
                     "--speedup", "20"]) == 0
        output = capsys.readouterr().out
        assert "MATCH" in output
        assert "MISMATCH" not in output

    def test_json_report(self, tmp_path, capsys):
        assert main(["live", "diff", spec_path(tmp_path), "--speedup", "20",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["sim"]["digest"] == payload["live"]["digest"]

    def test_no_artifact_written_on_success(self, tmp_path, capsys):
        artifacts = tmp_path / "artifacts"
        assert main(["live", "diff", spec_path(tmp_path), "--speedup", "20",
                     "--artifacts", str(artifacts)]) == 0
        assert not artifacts.exists()


class TestLiveNode:
    def test_bad_nodes_list_is_a_usage_error(self, tmp_path, capsys):
        directory = tmp_path / "dir.json"
        directory.write_text(json.dumps({str(n): ["127.0.0.1", 1]
                                         for n in range(6)}))
        assert main(["live", "node", spec_path(tmp_path),
                     "--nodes", "0,x", "--directory", str(directory)]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_node_missing_from_directory_is_a_usage_error(
            self, tmp_path, capsys):
        directory = tmp_path / "dir.json"
        directory.write_text(json.dumps({"0": ["127.0.0.1", 1]}))
        assert main(["live", "node", spec_path(tmp_path),
                     "--nodes", "0,1", "--directory", str(directory)]) == 2
        assert "absent from the directory" in capsys.readouterr().err

    def test_spec_node_a_shard_cannot_honour_is_a_usage_error(
            self, tmp_path, capsys):
        """The session's refusal reaches the user as ``error: ...`` and
        exit 2, not as a traceback."""
        spec = small_spec()
        spec = spec.with_(
            churn=dataclasses.replace(spec.churn, kind="random",
                                      leave_rate=0.01, duration=100.0),
            measurement=dataclasses.replace(spec.measurement, horizon=200.0),
        )
        directory = tmp_path / "dir.json"
        directory.write_text(json.dumps({str(n): ["127.0.0.1", 1]
                                         for n in range(6)}))
        assert main(["live", "node", spec_path(tmp_path, spec),
                     "--nodes", "0,1,2", "--directory", str(directory)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: spec node churn")
        assert "Traceback" not in captured.err

    def test_missing_directory_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["live", "node", spec_path(tmp_path), "--nodes", "0",
                     "--directory", str(tmp_path / "missing.json")]) == 2

    def test_bad_bind_is_a_usage_error(self, tmp_path, capsys):
        directory = tmp_path / "dir.json"
        directory.write_text(json.dumps({"0": ["127.0.0.1", 1]}))
        assert main(["live", "node", spec_path(tmp_path), "--nodes", "0",
                     "--directory", str(directory), "--bind", "9999"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
