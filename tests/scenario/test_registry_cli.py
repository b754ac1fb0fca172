"""Scenario catalogue and ``scenarios`` CLI subcommand tests."""

import json

import pytest

from repro.cli import main
from repro.scenario.library import (
    get_scenario,
    registered_scenarios,
    resolve_spec,
    scenario_names,
)
from repro.scenario.spec import ScenarioSpec

ALL_NAMES = scenario_names() + scenario_names("flat")


class TestRegistry:
    def test_at_least_six_scenarios_registered(self):
        assert len(scenario_names()) >= 6

    def test_default_catalogue_is_the_object_engine_tier(self):
        assert scenario_names() == list(registered_scenarios())
        assert scenario_names() == scenario_names("object")

    def test_canned_workloads_are_registered(self):
        names = scenario_names()
        for name in ("initial_holders", "search", "scale"):
            assert name in names

    def test_new_scenario_families_are_registered(self):
        """The API unlocks burst-loss and ramp workloads as data."""
        specs = {name: get_scenario(name) for name in scenario_names()}
        kinds = {spec.loss.kind for spec in specs.values()}
        assert "gilbert_elliott" in kinds
        traffic = {spec.traffic.kind for spec in specs.values()}
        assert "ramp" in traffic

    def test_names_are_unique_across_both_tiers(self):
        assert len(set(ALL_NAMES)) == len(ALL_NAMES)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_a_name_finds_the_spec_of_that_name(self, name):
        assert get_scenario(name).name == name

    def test_get_scenario_returns_fresh_values(self):
        assert get_scenario("scale") == get_scenario("scale")

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(KeyError, match="scale"):
            get_scenario("nope")

    def test_every_spec_materializes(self):
        """Each catalogue spec builds a simulation (without running)."""
        for name in scenario_names():
            built = get_scenario(name).build()
            assert built.simulation.members, name


class TestScenariosCli:
    def test_list_renders_every_registered_spec(self, capsys):
        assert main(["scenarios", "list"]) == 0
        output = capsys.readouterr().out
        for name in scenario_names():
            assert name in output

    def test_list_prints_each_spec_description(self, capsys):
        assert main(["scenarios", "list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for name in ALL_NAMES:
            [line] = [line for line in lines if line.split("  ", 1)[0] == name]
            assert line.endswith("  " + get_scenario(name).description)

    def test_describe_prints_loadable_json_and_digest(self, capsys):
        assert main(["scenarios", "describe", "overload_onset"]) == 0
        output = capsys.readouterr().out
        body, digest_line = output.rsplit("digest:", 1)
        spec = ScenarioSpec.from_json(body)
        assert spec == get_scenario("overload_onset")
        assert digest_line.strip() == spec.digest()

    def test_run_json_emits_summary_object(self, capsys):
        assert main(["scenarios", "run", "initial_holders", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["scenario"] == "initial_holders"
        assert summary["members"] == 100
        assert summary["delivered_fraction"] == 1.0

    def test_run_text_mode_and_seed_override(self, capsys):
        assert main(["scenarios", "run", "search", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "scenario search (seed 3)" in output
        assert "events_fired" in output

    def test_run_gilbert_elliott_scenario(self, capsys):
        """Acceptance: the burst-loss scenario runs end to end."""
        assert main(["scenarios", "run", "wan_burst_loss", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["messages"] == 30
        assert summary["delivered_fraction"] > 0.9

    def test_run_ramp_scenario(self, capsys):
        """Acceptance: the RampStream scenario runs end to end."""
        assert main(["scenarios", "run", "overload_onset", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["messages"] == 40
        assert summary["delivered_fraction"] > 0.9

    def test_unknown_scenario_is_a_usage_error_not_a_traceback(self, capsys):
        assert main(["scenarios", "run", "not-a-scenario"]) == 2
        captured = capsys.readouterr()
        assert "unknown scenario" in captured.err
        assert "scale" in captured.err  # catalogue included as a hint
        assert main(["scenarios", "describe", "not-a-scenario"]) == 2
        capsys.readouterr()


def _tiny_spec() -> ScenarioSpec:
    """A 6-member stream every engine finishes in well under a second."""
    import dataclasses

    spec = get_scenario("initial_holders")
    return spec.with_(
        name="resolver_test",
        topology=dataclasses.replace(spec.topology, kind="chain", n=6,
                                     sizes=(3, 3)),
        traffic=dataclasses.replace(spec.traffic, kind="uniform", count=4,
                                    interval=20.0, start=10.0),
    )


#: Every subcommand that takes the shared scenario / --seed / --param
#: group, with the flags that make its stdout one JSON document.
_SPEC_COMMANDS = [
    (["scenarios", "run"], ["--json"]),
    (["scenarios", "describe"], []),
    (["validate", "run"], ["--json"]),
    (["live", "run"], ["--json", "--speedup", "20"]),
]


@pytest.mark.parametrize("command, flags", _SPEC_COMMANDS,
                         ids=[" ".join(c) for c, _ in _SPEC_COMMANDS])
class TestOneResolver:
    """``resolve_spec`` plus one argument group serve every subcommand."""

    @staticmethod
    def _identity(capsys):
        """``(name, seed, digest)`` from whichever payload was printed."""
        out = capsys.readouterr().out
        if "\ndigest:" in out:  # describe: spec JSON, then the digest line
            body, digest = out.rsplit("digest:", 1)
            payload = json.loads(body)
            return payload["name"], payload["seed"], digest.strip()
        payload = json.loads(out)
        return payload["scenario"], payload["seed"], payload["digest"]

    def test_accepts_a_registry_name(self, command, flags, capsys):
        assert main(command + ["search"] + flags) == 0
        expected = get_scenario("search")
        assert self._identity(capsys) == ("search", expected.seed,
                                          expected.digest())

    def test_accepts_a_spec_file(self, command, flags, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(_tiny_spec().to_json())
        assert main(command + [str(path)] + flags) == 0
        assert self._identity(capsys) == ("resolver_test", 0,
                                          _tiny_spec().digest())

    def test_applies_dotted_params_and_seed(self, command, flags, tmp_path,
                                            capsys):
        import dataclasses

        path = tmp_path / "spec.json"
        path.write_text(_tiny_spec().to_json())
        assert main(command + [str(path), "--param", "policy.c=3",
                               "--seed", "7"] + flags) == 0
        base = _tiny_spec()
        expected = base.with_(
            seed=7, policy=dataclasses.replace(base.policy, c=3))
        assert self._identity(capsys) == ("resolver_test", 7,
                                          expected.digest())

    def test_unknown_name_is_exit_2_with_one_catalogue(self, command, flags,
                                                       capsys):
        assert main(command + ["no-such-scenario"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("unknown scenario") == 1
        assert "wan_burst_loss" in captured.err
        assert "flat engine: scale_10k, scale_100k" in captured.err

    def test_bad_param_is_exit_2(self, command, flags, capsys):
        assert main(command + ["search", "--param", "nope.x=1"] + flags) == 2
        assert "no field" in capsys.readouterr().err


class TestResolveSpec:
    def test_name_wins_and_files_load(self, tmp_path):
        assert resolve_spec("scale") == get_scenario("scale")
        assert resolve_spec("scale_10k").topology.member_count() == 10_000
        path = tmp_path / "spec.json"
        path.write_text(_tiny_spec().to_json())
        assert resolve_spec(str(path)) == _tiny_spec()

    def test_neither_name_nor_file_raises_the_catalogue(self):
        with pytest.raises(KeyError, match="known: initial_holders"):
            resolve_spec("does/not/exist.json")

    def test_a_file_that_is_not_a_spec_raises_value_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"bogus": 1}')
        with pytest.raises(ValueError, match="bogus"):
            resolve_spec(str(path))


class TestSpecOverrides:
    """Dotted ``--param`` overrides on ``scenarios run``."""

    def test_apply_overrides_walks_dotted_paths(self):
        from repro.cli import _apply_spec_overrides

        spec = get_scenario("search")
        updated = _apply_spec_overrides(spec, [
            ("congestion.controller", "aimd"),
            ("congestion.max_rate", 200.0),
            ("seed", 9),
        ])
        assert updated.congestion.controller == "aimd"
        assert updated.congestion.max_rate == 200.0
        assert updated.seed == 9
        # The original frozen spec is untouched.
        assert spec.congestion.controller == "none"

    def test_unknown_field_raises(self):
        from repro.cli import _apply_spec_overrides

        with pytest.raises(ValueError, match="no field"):
            _apply_spec_overrides(get_scenario("search"), [("bogus.x", 1)])
        with pytest.raises(ValueError, match="no field"):
            _apply_spec_overrides(get_scenario("search"),
                                  [("congestion.bogus", 1)])

    def test_validation_refires_on_override(self):
        from repro.cli import _apply_spec_overrides

        with pytest.raises(ValueError):
            _apply_spec_overrides(get_scenario("search"),
                                  [("loss.p", 2.0)])

    def test_cli_run_with_congestion_param(self, capsys):
        # A stream scenario: probe workloads have no sender stream for
        # the congestion driver to pace.
        assert main([
            "scenarios", "run", "overload_onset",
            "--param", "congestion.controller=aimd",
            "--param", "congestion.max_rate=200",
            "--param", "congestion.min_rate=5",
            "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cc_controller"] == "aimd"
        assert summary["offered_messages"] == 40

    def test_cli_bad_param_is_a_usage_error(self, capsys):
        assert main([
            "scenarios", "run", "search", "--param", "nope.x=1",
        ]) == 2
        assert "no field" in capsys.readouterr().err

    def test_cli_invalid_value_is_a_usage_error(self, capsys):
        assert main([
            "scenarios", "run", "search", "--param", "loss.p=2.0",
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_cli_value_refused_at_build_time_is_a_usage_error(self, capsys):
        """``PolicySpec`` refuses the value while ``--param`` builds the
        spec, before any scenario is built."""
        assert main([
            "scenarios", "run", "initial_holders", "--json",
            "--param", "policy.idle_threshold=0",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: idle_threshold must be > 0, got 0.0\n"

    @pytest.mark.parametrize("command, params, message", [
        (["scenarios", "describe", "scale"], ["policy.idle_threshold=-1"],
         "idle_threshold must be > 0, got -1.0"),
        (["scenarios", "run", "scale_10k"], ["policy.max_search_rounds=0"],
         "max_search_rounds must be > 0, got 0"),
        (["validate", "run", "initial_holders"], ["policy.remote_lambda=-1"],
         "remote_lambda must be >= 0, got -1.0"),
        (["validate", "digest", "search"], ["policy.timer_factor=1.7e308"],
         "timer_factor must be <= 1e6, got 1.7e+308"),
        (["scenarios", "run", "initial_holders"], ["fec.mode='proactive'", "fec.parity=0"],
         "fec parity must be >= 1 with mode 'proactive', got 0"),
    ])
    def test_a_refused_policy_or_fec_value_is_refused_alike_by_every_command(
            self, capsys, command, params, message):
        argv = list(command)
        for param in params:
            argv += ["--param", param]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("name", ["wan_burst_loss", "flash_crowd", "scale"])
    def test_cli_negative_traffic_start_is_a_usage_error(self, capsys, name):
        assert main(["scenarios", "run", name, "--param", "traffic.start=-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: traffic start must be >= 0, got -1.0\n"

    @pytest.mark.parametrize("name, field, value, message", [
        ("initial_holders", "intra_one_way", "nan",
         "TopologySpec.intra_one_way must be finite float, got nan"),
        ("search", "inter_one_way", "1e999",
         "TopologySpec.inter_one_way must be finite float, got inf"),
        ("initial_holders", "intra_one_way", "-1",
         "intra_one_way must be > 0 and <= 1e9 ms, got -1.0"),
        # A zero latency used to spin recovery rounds at t = 0 forever.
        ("heterogeneous_regions", "intra_one_way", "0",
         "intra_one_way must be > 0 and <= 1e9 ms, got 0.0"),
        ("regional_outage", "intra_one_way", "0",
         "intra_one_way must be > 0 and <= 1e9 ms, got 0.0"),
        ("heterogeneous_regions", "inter_one_way", "0",
         "inter_one_way must be > 0 and <= 1e9 ms, got 0.0"),
        ("search", "inter_down_one_way", "1e999",
         "TopologySpec.inter_down_one_way must be Optional[finite float], got inf"),
    ])
    def test_cli_non_finite_or_negative_latency_is_a_usage_error(self, capsys, name, field,
                                                                 value, message):
        assert main(["scenarios", "run", name, "--param", f"topology.{field}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_cli_describe_refuses_a_non_finite_value(self, capsys):
        """Spec construction refuses nan, so ``describe`` never prints a
        spec whose ``run`` would hang (a nan horizon never ends)."""
        assert main(["scenarios", "describe", "scale",
                     "--param", "measurement.horizon=nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: MeasurementSpec.horizon must be Optional[finite float], got nan\n"
        )

    def test_cli_non_integral_value_for_an_int_field_is_a_usage_error(self, capsys):
        assert main([
            "scenarios", "run", "overload_onset", "--param", "traffic.count=2.5",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: TrafficSpec.count must be int, got 2.5\n"

    def test_cli_float_field_spelled_as_int_keeps_the_registry_digest(self, capsys):
        assert main([
            "scenarios", "run", "overload_onset", "--json",
            "--param", "policy.idle_threshold=40",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["digest"] == get_scenario("overload_onset").digest()

    def test_list_value_is_stored_as_a_tuple(self):
        from repro.cli import _apply_spec_overrides

        spec = _apply_spec_overrides(get_scenario("heterogeneous_regions"),
                                     [("topology.sizes", [3, 4])])
        assert spec.topology.sizes == (3, 4)
        assert hash(spec) == hash(spec.with_(name=spec.name))

    def test_cli_value_error_while_running_stays_loud(self, monkeypatch):
        def broken_run(self, *args, **kwargs):
            raise ValueError("raised by the run, not by construction")

        monkeypatch.setattr("repro.scenario.materialize.BuiltScenario.run",
                            broken_run)
        with pytest.raises(ValueError, match="raised by the run"):
            main(["scenarios", "run", "initial_holders", "--json"])


class TestCongestionScenario:
    def test_overload_onset_cc_registered_with_controller(self):
        spec = get_scenario("overload_onset_cc")
        assert spec.congestion.enabled
        assert spec.congestion.controller == "tfmcc"

    def test_cc_spec_round_trips_with_congestion_node(self):
        spec = get_scenario("overload_onset_cc")
        payload = spec.to_dict()
        assert payload["congestion"]["controller"] == "tfmcc"
        assert ScenarioSpec.from_dict(payload) == spec

    def test_cc_off_specs_serialize_without_congestion_node(self):
        spec = get_scenario("overload_onset")
        assert "congestion" not in spec.to_dict()

    def test_bottleneck_fields_omitted_at_defaults(self):
        spec = get_scenario("overload_onset")
        loss = spec.to_dict()["loss"]
        assert "capacity" not in loss
        assert "window" not in loss
