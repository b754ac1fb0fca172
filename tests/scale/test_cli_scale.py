"""CLI surface of the scale subsystem: list/describe/run + --profile."""

import json

import pytest

from repro.cli import main
from repro.scenario.library import get_scenario

#: Keeps the flat runs below short, and the object engine's when the
#: engine is picked wrongly.
SHORT = ["--param", "traffic.count=3"]


class TestScenariosList:
    def test_list_includes_scale_tier(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "scale tier (flat engine):" in out
        assert "scale_10k" in out
        assert "scale_100k" in out
        # The classic tier is still fully listed.
        assert "initial_holders" in out and "wan_burst_loss" in out

    def test_describe_resolves_scale_tier_names(self, capsys):
        assert main(["scenarios", "describe", "scale_10k"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("digest:")])
        assert payload["name"] == "scale_10k"
        assert payload["topology"]["kind"] == "star"

    def test_unknown_name_lists_one_catalogue_with_the_flat_tier(self, capsys):
        assert main(["scenarios", "run", "scale_1M"]) == 2
        err = capsys.readouterr().err
        assert err.count("unknown scenario") == 1
        assert "initial_holders" in err
        assert "flat engine: scale_10k, scale_100k" in err


class TestScenariosRunSharded:
    def test_scale_tier_runs_on_flat_engine(self, capsys):
        assert main(["scenarios", "run", "scale_10k", "--shards", "2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "flat"
        assert payload["shards"] == 2
        assert payload["delivered_fraction"] == 1.0
        assert payload["trace_digest"]

    def test_a_flat_spec_file_runs_on_the_flat_engine_and_shards(self, tmp_path, capsys):
        path = tmp_path / "scale_10k.json"
        path.write_text(get_scenario("scale_10k").to_json())
        assert main(["scenarios", "run", "scale_10k", "--json", *SHORT]) == 0
        by_name = json.loads(capsys.readouterr().out)
        assert main(["scenarios", "run", str(path), "--shards", "2", "--json", *SHORT]) == 0
        by_file = json.loads(capsys.readouterr().out)
        assert by_file["engine"] == "flat"
        assert by_file["shards"] == 2
        assert by_file["trace_digest"] == by_name["trace_digest"]

    @pytest.mark.parametrize("command", [["validate", "digest"], ["validate", "run", "--json"]])
    def test_validate_picks_the_flat_engine_for_a_spec_file(self, command, tmp_path, capsys):
        path = tmp_path / "scale_10k.json"
        path.write_text(get_scenario("scale_10k").to_json())
        assert main([*command, "scale_10k", *SHORT]) == 0
        by_name = capsys.readouterr().out
        assert main([*command, str(path), *SHORT]) == 0
        assert capsys.readouterr().out == by_name

    def test_shards_on_an_object_engine_name_is_a_usage_error(self, capsys):
        assert main(["scenarios", "run", "initial_holders", "--shards", "2",
                     "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--shards" in captured.err and "flat-engine" in captured.err

    def test_classic_serial_run_is_unchanged(self, capsys):
        assert main(["scenarios", "run", "initial_holders", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "engine" not in payload  # the plain object-engine summary
        assert payload["delivered_fraction"] == 1.0

    @pytest.mark.parametrize("param", ["fec.mode=proactive", "traffic.count=0"])
    def test_spec_the_flat_engine_refuses_is_a_usage_error(
            self, param, capsys, monkeypatch):
        def build_nothing(topology):
            raise AssertionError("hierarchy built for a refused spec")

        monkeypatch.setattr("repro.scale.engine.build_hierarchy", build_nothing)
        assert main(["scenarios", "run", "scale_10k", "--json",
                     "--param", param]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: flat engine cannot run spec 'scale_10k': ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [["validate", "run"], ["validate", "digest"]])
    def test_validate_on_a_spec_the_flat_engine_refuses_is_a_usage_error(
            self, command, capsys, monkeypatch):
        """Like ``scenarios run``: one ``error:`` line, not a traceback."""
        def build_nothing(topology):
            raise AssertionError("hierarchy built for a refused spec")

        monkeypatch.setattr("repro.scale.engine.build_hierarchy", build_nothing)
        assert main([*command, "scale_10k", "--param", "congestion.controller=aimd"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: flat engine cannot run spec 'scale_10k': spec node congestion: ")
        assert captured.err.count("\n") == 1

    def test_invalid_shard_count_is_a_usage_error(self, capsys):
        assert main(["scenarios", "run", "initial_holders",
                     "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_invalid_job_count_is_a_usage_error(self, jobs, capsys):
        assert main(["scenarios", "run", "scale_10k", "--json",
                     "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument --jobs: must be >= 1, got {jobs}\n"

    def test_policy_value_rrmp_config_refuses_is_a_usage_error(
            self, capsys, monkeypatch):
        """``PolicySpec`` refuses the value while ``--param`` builds the
        spec, so the flat tier builds nothing."""
        def build_nothing(topology):
            raise AssertionError("hierarchy built for a refused spec")

        monkeypatch.setattr("repro.scale.engine.build_hierarchy", build_nothing)
        assert main(["scenarios", "run", "scale_10k", "--json",
                     "--param", "policy.idle_threshold=0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: idle_threshold must be > 0, got 0.0\n"

    def test_value_error_while_running_stays_loud(self, monkeypatch):
        def broken_run(spec, **kwargs):
            raise ValueError("raised by the run, not by construction")

        monkeypatch.setattr("repro.scale.engine.run_flat", broken_run)
        with pytest.raises(ValueError, match="raised by the run"):
            main(["scenarios", "run", "scale_10k", "--json"])


class TestProfileFlag:
    def test_scenarios_run_profile_writes_pstats(self, tmp_path, capsys):
        out_path = tmp_path / "scen.pstats"
        assert main(["scenarios", "run", "initial_holders", "--json",
                     "--profile", str(out_path)]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout stayed machine-readable
        assert out_path.exists() and out_path.stat().st_size > 0
        assert "profile" in captured.err
        assert "cumulative" in captured.err

    def test_experiments_run_profile_writes_pstats(self, tmp_path, capsys):
        import pstats

        out_path = tmp_path / "exp.pstats"
        assert main(["run", "fig6", "--quick", "--no-cache",
                     "--profile", str(out_path)]) == 0
        assert out_path.exists()
        stats = pstats.Stats(str(out_path))
        assert stats.total_calls > 0

    def test_bare_profile_after_the_positional_writes_the_default_file(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["scenarios", "run", "initial_holders", "--profile"]) == 0
        assert "scenario initial_holders" in capsys.readouterr().out
        assert (tmp_path / "profile.pstats").stat().st_size > 0

    def test_profile_out_is_gone(self, capsys):
        assert main(["scenarios", "run", "initial_holders", "--profile-out", "p"]) == 2
        assert "--profile-out" in capsys.readouterr().err

    def test_profile_off_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["scenarios", "run", "initial_holders", "--json"]) == 0
        assert not (tmp_path / "profile.pstats").exists()


@pytest.mark.parametrize("name", ["scale_10k", "scale_100k"])
def test_scale_tier_describe_digests_are_stable(name, capsys):
    assert main(["scenarios", "describe", name]) == 0
    first = capsys.readouterr().out
    assert main(["scenarios", "describe", name]) == 0
    assert capsys.readouterr().out == first
