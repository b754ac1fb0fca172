"""Unified RunReport tests: the one summary shape all CLIs print."""

import json

import pytest

from repro.metrics.runreport import RunReport


def _report(**overrides):
    defaults = dict(kind="scenario", scenario="search", seed=3,
                    metrics={"delivered_fraction": 1.0, "messages": 30})
    defaults.update(overrides)
    return RunReport(**defaults)


class TestPayload:
    def test_metrics_are_the_payload(self):
        report = _report()
        assert report.payload() == {"delivered_fraction": 1.0, "messages": 30}

    def test_oracle_nests_when_present(self):
        report = _report(oracle={"violation_count": 0})
        assert report.payload()["oracle"] == {"violation_count": 0}

    def test_payload_is_a_copy(self):
        report = _report()
        report.payload()["messages"] = 99
        assert report.payload()["messages"] == 30


class TestJson:
    def test_to_json_round_trips(self):
        report = _report()
        assert json.loads(report.to_json()) == report.payload()

    def test_indent_changes_text_not_value(self):
        report = _report()
        assert json.loads(report.to_json(indent=2)) == json.loads(report.to_json())



class TestExitCode:
    def test_success_is_zero(self):
        assert _report().exit_code == 0

    def test_failure_is_one(self):
        assert _report(failed=True).exit_code == 1


class TestText:
    def test_default_title_names_kind_scenario_seed(self):
        text = _report().to_text()
        assert text.splitlines()[0] == "== scenario search (seed 3) =="

    def test_explicit_title_wins(self):
        text = _report().to_text("== custom ==")
        assert text.splitlines()[0] == "== custom =="

    def test_keys_aligned_and_floats_compact(self):
        text = _report(metrics={"a": 1, "delivered_fraction": 0.98765432}).to_text()
        lines = text.splitlines()[1:]
        assert any("0.9877" in line for line in lines)  # %.4g float form
        padded = [line.split()[0] for line in lines]
        assert "a" in padded and "delivered_fraction" in padded

    def test_one_level_flattens_and_the_rest_stays_in_the_json(self):
        report = _report(metrics={"messages": 30, "violations": [{"x": 1}]},
                         oracle={"violation_count": 0, "by": {"gap": 2}})
        keys = [line.split()[0] for line in report.to_text().splitlines()[1:]]
        assert keys == ["messages", "oracle.violation_count"]


class TestDefaults:
    def test_minimal_construction(self):
        report = RunReport(kind="validate", scenario="d", seed=0)
        assert report.payload() == {}
        assert report.exit_code == 0
        assert not report.failed

    def test_failed_flag_does_not_leak_into_payload(self):
        report = _report(failed=True)
        assert "failed" not in report.payload()



@pytest.mark.parametrize("kind", ["scenario", "live", "validate"])
def test_all_cli_kinds_construct(kind):
    assert RunReport(kind=kind, scenario="x", seed=0).payload() == {}
