"""Tests for the ``validate`` CLI subcommand."""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import manager
from repro.scenario.library import get_scenario
from repro.sim.tracing import trace_digest
from repro.validate.fuzz import sample_spec

FLAT_GOLDEN = json.loads(
    (Path(__file__).parents[1] / "baselines" / "flat_trace_digests.json").read_text()
)


class TestValidateRun:
    def test_registry_scenario_clean_exit(self, capsys):
        assert main(["validate", "run", "search"]) == 0
        output = capsys.readouterr().out
        assert "all invariants hold" in output
        assert "violation_count  0" in output

    def test_json_payload(self, capsys):
        assert main(["validate", "run", "search", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "search"
        assert payload["violation_count"] == 0
        assert payload["error"] is None
        assert payload["records_checked"] > 0

    def test_seed_override(self, capsys):
        assert main(["validate", "run", "search", "--seed", "9", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 9

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["validate", "run", "no_such_scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_spec_json_file_runs(self, tmp_path, capsys):
        spec = sample_spec(0, 1)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["validate", "run", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["scenario"] == spec.name


class TestValidateRunGiveUps:
    """A named run whose recoveries give up fails ``validate run``, as it
    fails ``live run``, though every invariant holds."""

    def test_a_deadline_too_short_to_recover_fails_the_run(self, capsys):
        assert main(["validate", "run", "wan_burst_loss",
                     "--param", "policy.max_recovery_time=5"]) == 1
        output = capsys.readouterr().out
        assert "55 recoveries gave up (reliability_violation records)" in output
        assert "violation_count  0" in output

    def test_the_never_keep_coin_mutant_fails_the_run(self, monkeypatch, capsys):
        monkeypatch.setattr(manager, "keeps_long_term", lambda rng, c, region_size: False)
        assert main(["validate", "run", "wan_burst_loss", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["give_ups"], payload["violation_count"]) == (2, 0)

    def test_a_replayed_artifact_may_give_up(self, tmp_path, capsys):
        """Drawn trials give up legitimately: replay keeps the oracle's rule."""
        spec = get_scenario("wan_burst_loss")
        spec = spec.with_(policy=dataclasses.replace(spec.policy, max_recovery_time=5.0))
        path = tmp_path / "artifact.json"
        path.write_text(spec.to_json())
        assert main(["validate", "replay", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["give_ups"] == 55


class TestValidateFuzz:
    def test_clean_fuzz_exits_zero(self, capsys):
        assert main(["validate", "fuzz", "--trials", "5", "--seed", "0",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["trials"] == 5

    def test_text_report(self, capsys):
        assert main(["validate", "fuzz", "--trials", "3", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert "all invariants hold on every sampled scenario" in captured.out
        assert "trial    0" in captured.err  # per-trial progress on stderr

    def test_bad_trial_count_is_a_usage_error(self, capsys):
        assert main(["validate", "fuzz", "--trials", "0"]) == 2


class TestValidateReplay:
    def test_replay_spec_file(self, tmp_path, capsys):
        spec = sample_spec(0, 2)
        path = tmp_path / "repro.json"
        path.write_text(json.dumps({"format": "rrmp-validate-repro/1",
                                    "spec": spec.to_dict()}))
        assert main(["validate", "replay", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == spec.name
        assert payload["violation_count"] == 0

    def test_missing_artifact_is_a_usage_error(self, capsys):
        assert main(["validate", "replay", "/nonexistent/artifact.json"]) == 2
        assert "cannot load artifact" in capsys.readouterr().err


class TestReplayDirectory:
    @staticmethod
    def write_artifact(directory, name, spec):
        path = directory / name
        path.write_text(json.dumps({"format": "rrmp-validate-repro/1",
                                    "spec": spec.to_dict()}))
        return path

    def test_clean_directory_replays_every_artifact(self, tmp_path, capsys):
        self.write_artifact(tmp_path, "a.json", sample_spec(0, 3))
        self.write_artifact(tmp_path, "b.json", sample_spec(1, 3))
        assert main(["validate", "replay", str(tmp_path)]) == 0
        assert "2/2 replay clean" in capsys.readouterr().out

    def test_json_summary_shape(self, tmp_path, capsys):
        self.write_artifact(tmp_path, "a.json", sample_spec(0, 3))
        assert main(["validate", "replay", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["directory"] == str(tmp_path)
        assert payload["artifacts"] == 1
        assert payload["failures"] == 0
        [result] = payload["results"]
        assert result["status"] == "ok"
        assert result["violation_count"] == 0

    def test_unloadable_artifact_counts_as_a_failure(self, tmp_path, capsys):
        self.write_artifact(tmp_path, "good.json", sample_spec(0, 3))
        (tmp_path / "bad.json").write_text("{broken")
        assert main(["validate", "replay", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 1
        statuses = {os.path.basename(r["artifact"]): r["status"]
                    for r in payload["results"]}
        assert statuses["bad.json"] == "load_error"
        assert statuses["good.json"] == "ok"

    def test_empty_directory_is_a_usage_error(self, tmp_path, capsys):
        assert main(["validate", "replay", str(tmp_path)]) == 2
        assert "no *.json artifacts" in capsys.readouterr().err


class TestFindings:
    """Every fuzz finding ships as a spec in ``findings/``: one the
    protocol now runs clean, or one its node now refuses by name."""

    FINDINGS = Path(__file__).parent / "findings"

    def test_a_fixed_finding_replays_clean(self, capsys):
        path = self.FINDINGS / "hash_lookup_ping_pong.json"
        assert main(["validate", "replay", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["violation_count"] == 0

    @pytest.mark.parametrize("name, refusal", [
        ("zero_latency_spin", "intra_one_way must be > 0 and <= 1e9 ms, got 0.0"),
        ("balanced_tree_without_fanout",
         "balanced_tree needs depth >= 0 and fanout >= 1, got depth=1 and fanout=0"),
    ])
    def test_a_refused_finding_is_one_error_line(self, capsys, name, refusal):
        path = self.FINDINGS / f"{name}.json"
        assert main(["validate", "replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot load artifact {str(path)!r}: {refusal}\n"


class TestValidateDigest:
    def test_digest_matches_a_direct_run(self, capsys):
        assert main(["validate", "digest", "search"]) == 0
        printed = capsys.readouterr().out.split()[0]
        built = get_scenario("search").build().run()
        assert printed == trace_digest(built.simulation.trace.records)

    def test_unknown_scenario(self, capsys):
        assert main(["validate", "digest", "nope"]) == 2

    def test_flat_tier_name_prints_the_flat_digest(self, capsys):
        assert main(["validate", "digest", "scale_10k"]) == 0
        printed = capsys.readouterr().out.split()[0]
        assert printed == FLAT_GOLDEN["scale_10k"]["trace_digest"]


class TestValidateFlat:
    def test_flat_tier_name_runs_the_flat_engine_under_the_oracle(self, capsys):
        assert main(["validate", "run", "scale_10k", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "scale_10k"
        assert payload["error"] is None
        assert payload["violation_count"] == 0
        assert payload["events_fired"] == FLAT_GOLDEN["scale_10k"]["events_fired"] == 590
        # Every record of the flat run, not the object engine's 426,526.
        assert payload["records_checked"] == 310_142


def test_validate_appears_in_help():
    with pytest.raises(SystemExit):
        main(["--help"])
