"""Tests for the Runner (cache interplay, stats, ambient context)."""

from repro.runner.backends import ProcessPoolBackend, SerialBackend
from repro.runner.cache import ResultCache
from repro.runner.runner import Runner, current_runner, using_runner
from repro.runner.spec import SweepSpec
from repro.runner._testing import trial_square


def sweep(points=3, seeds=(0, 1)):
    return SweepSpec("exp", trial_square, [{"x": x} for x in range(points)], list(seeds))


class TestRunner:
    def test_results_in_spec_order(self):
        runner = Runner()
        grouped = runner.run_sweep(sweep())
        assert [[run["value"] for run in runs] for runs in grouped] == [
            [0, 1], [1, 2], [4, 5]
        ]

    def test_cold_run_executes_and_populates_cache(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        runner.run_sweep(sweep())
        assert runner.stats.executed == 6
        assert runner.stats.cached == 0
        assert runner.stats.events_fired == 0  # arithmetic trials, no engine
        assert ResultCache(tmp_path).entry_count() == 6

    def test_warm_run_executes_nothing(self, tmp_path):
        Runner(cache=ResultCache(tmp_path)).run_sweep(sweep())
        warm = Runner(cache=ResultCache(tmp_path))
        grouped = warm.run_sweep(sweep())
        assert warm.stats.executed == 0
        assert warm.stats.cached == 6
        assert [[run["value"] for run in runs] for runs in grouped] == [
            [0, 1], [1, 2], [4, 5]
        ]

    def test_duplicate_specs_coalesce(self):
        runner = Runner()
        duplicated = SweepSpec("exp", trial_square, [{"x": 2}, {"x": 2}], [5])
        grouped = runner.run_sweep(duplicated)
        assert grouped == [[{"value": 9, "seed": 5}], [{"value": 9, "seed": 5}]]
        assert runner.stats.executed == 1
        assert runner.stats.deduped == 1

    def test_parallel_equals_serial_through_cacheless_runner(self):
        serial = Runner(backend=SerialBackend()).run_sweep(sweep(4, (0, 1, 2)))
        parallel = Runner(backend=ProcessPoolBackend(2)).run_sweep(sweep(4, (0, 1, 2)))
        assert serial == parallel

    def test_run_sweeps_batches_and_groups(self):
        runner = Runner()
        first, second = runner.run_sweeps([sweep(2), sweep(1, seeds=(9,))])
        assert [[run["value"] for run in runs] for runs in first] == [[0, 1], [1, 2]]
        assert [[run["value"] for run in runs] for runs in second] == [[9]]

    def test_stats_summary_mentions_counts(self):
        runner = Runner()
        runner.run_sweep(sweep(1, seeds=(0,)))
        assert "executed=1" in runner.stats.summary()


class TestAmbientRunner:
    def test_default_is_serial_uncached(self):
        runner = current_runner()
        assert isinstance(runner.backend, SerialBackend)
        assert runner.cache is None

    def test_using_runner_installs_and_restores(self):
        replacement = Runner()
        original = current_runner()
        with using_runner(replacement) as active:
            assert active is replacement
            assert current_runner() is replacement
        assert current_runner() is original

    def test_using_runner_restores_on_exception(self):
        original = current_runner()
        try:
            with using_runner(Runner()):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_runner() is original
