"""Tests for the experiment registry and CLI."""

import pytest

from repro.cli import build_parser, main, parse_param, runner_from_args
from repro.experiments.quick import QUICK_PARAMS
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from repro.metrics.report import SeriesTable
from repro.runner.backends import ProcessPoolBackend, SerialBackend


class TestRegistry:
    def test_all_figures_registered(self):
        ids = experiment_ids()
        for figure in ("fig3", "fig4", "fig6", "fig7", "fig8", "fig9"):
            assert figure in ids

    def test_every_entry_has_description(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.description

    def test_run_experiment_dispatches(self):
        table = run_experiment("fig4", trials=200)
        assert isinstance(table, SeriesTable)

    def test_unknown_experiment_raises_with_hint(self):
        with pytest.raises(KeyError, match="fig4"):
            run_experiment("nope")

    def test_quick_params_cover_all_experiments(self):
        assert set(QUICK_PARAMS) == set(experiment_ids())


class TestParamParsing:
    def test_numbers(self):
        assert parse_param("seeds=10") == ("seeds", 10)
        assert parse_param("c=2.5") == ("c", 2.5)

    def test_tuples(self):
        assert parse_param("ks=(1, 2)") == ("ks", (1, 2))

    def test_strings_fall_back(self):
        assert parse_param("mode=fast") == ("mode", "fast")

    def test_lowercase_booleans_coerce(self):
        """``--param fec=true`` must arrive as True, not "true"."""
        assert parse_param("fec=true") == ("fec", True)
        assert parse_param("fec=false") == ("fec", False)
        assert parse_param("fec=TRUE") == ("fec", True)
        assert parse_param("fec=False") == ("fec", False)  # literal path

    def test_none_and_null_coerce(self):
        assert parse_param("ttl=none") == ("ttl", None)
        assert parse_param("ttl=null") == ("ttl", None)
        assert parse_param("ttl=None") == ("ttl", None)  # literal path

    def test_scientific_notation_floats(self):
        assert parse_param("rate=1e-3") == ("rate", 0.001)
        assert parse_param("rate=2.5E2") == ("rate", 250.0)
        assert parse_param("rate=inf") == ("rate", float("inf"))
        key, value = parse_param("rate=nan")
        assert key == "rate" and value != value

    def test_whitespace_stripped(self):
        assert parse_param(" seeds = 10 ") == ("seeds", 10)

    def test_word_strings_still_pass_through(self):
        assert parse_param("mode=truely") == ("mode", "truely")
        assert parse_param("mode=nonesuch") == ("mode", "nonesuch")

    def test_missing_equals_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_param("seeds")


class TestCli:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig6" in output and "ablation_policies" in output

    def test_run_prints_table(self, capsys):
        assert main(["run", "fig4", "--param", "trials=200"]) == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output
        assert "poisson e^-C" in output

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "not-a-figure"])

    @pytest.mark.parametrize("quick", [[], ["--quick"]])
    def test_unknown_param_is_a_usage_error(self, capsys, quick):
        assert main(["run", "fig4", *quick, "--param", "bogus=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: fig4 has no parameter 'bogus'")
        assert "cs, n, trials, seed" in line

    def test_quick_params_are_accepted_parameters(self):
        import inspect

        for eid, params in QUICK_PARAMS.items():
            accepted = inspect.signature(EXPERIMENTS[eid].run).parameters
            assert set(params) <= set(accepted), eid


class TestRunnerFlags:
    def test_quick_table_shared_between_cli_and_quick_module(self):
        import repro.cli
        from repro.experiments.quick import quick_params_for
        assert repro.cli.quick_params_for is quick_params_for

    def test_run_supports_quick(self, capsys):
        assert main(["run", "fig4", "--quick", "--no-cache",
                     "--param", "trials=200"]) == 0
        captured = capsys.readouterr()
        assert "Figure 4" in captured.out
        assert "runner:" in captured.err  # accounting goes to stderr

    def test_runner_from_args_builds_requested_backend(self):
        parser = build_parser()
        serial = runner_from_args(parser.parse_args(["run", "fig4", "--no-cache"]))
        assert isinstance(serial.backend, SerialBackend)
        assert serial.cache is None
        parallel = runner_from_args(
            parser.parse_args(["run", "fig4", "--jobs", "3"])
        )
        assert isinstance(parallel.backend, ProcessPoolBackend)
        assert parallel.backend.jobs == 3
        assert parallel.cache is not None

    def test_nonpositive_jobs_rejected(self, capsys):
        for bad in ("0", "-2", "two"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "fig4", "--jobs", bad])
        capsys.readouterr()  # swallow argparse usage output

    def test_cache_dir_round_trip_hits_cache(self, tmp_path, capsys):
        argv = ["run", "fig4", "--param", "trials=150",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "cached=0" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "executed=0" in warm.err
        assert warm.out == cold.out  # byte-identical table from cache

