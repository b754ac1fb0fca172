"""End-to-end: experiments through the sweep runner.

The determinism contract — ``--jobs N`` byte-identical to serial at
equal seeds, warm cache re-runs executing zero trials — asserted at the
experiment level on reduced parameters.
"""

from repro.experiments.ablation_scaling import run_scaling
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig8 import run_fig8
from repro.runner.backends import ProcessPoolBackend, SerialBackend
from repro.runner.cache import ResultCache
from repro.runner.runner import Runner, using_runner


class TestParallelDeterminism:
    def test_fig6_parallel_table_identical_to_serial(self):
        with using_runner(Runner(backend=SerialBackend())):
            serial = run_fig6(ks=(1, 4), seeds=3)
        with using_runner(Runner(backend=ProcessPoolBackend(2))):
            parallel = run_fig6(ks=(1, 4), seeds=3)
        assert parallel.digest() == serial.digest()
        assert parallel.to_text() == serial.to_text()

    def test_fig8_parallel_table_identical_to_serial(self):
        with using_runner(Runner(backend=SerialBackend())):
            serial = run_fig8(bs=(1, 5), seeds=4)
        with using_runner(Runner(backend=ProcessPoolBackend(2))):
            parallel = run_fig8(bs=(1, 5), seeds=4)
        assert parallel.digest() == serial.digest()


class TestWarmCache:
    def test_scaling_rerun_executes_zero_trials(self, tmp_path):
        cold = Runner(cache=ResultCache(tmp_path))
        with using_runner(cold):
            first = run_scaling(ns=(25, 50), seeds=2)
        assert cold.stats.executed == 4
        assert cold.stats.events_fired > 0

        warm = Runner(cache=ResultCache(tmp_path))
        with using_runner(warm):
            second = run_scaling(ns=(25, 50), seeds=2)
        assert warm.stats.executed == 0
        assert warm.stats.cached == 4
        assert second.digest() == first.digest()

    def test_param_change_misses_cache(self, tmp_path):
        with using_runner(Runner(cache=ResultCache(tmp_path))):
            run_fig6(ks=(1,), seeds=2)
        changed = Runner(cache=ResultCache(tmp_path))
        with using_runner(changed):
            run_fig6(ks=(1,), seeds=2, idle_threshold=80.0)
        assert changed.stats.executed == 2
        assert changed.stats.cached == 0
