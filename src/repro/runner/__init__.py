"""Declarative sweep runner (parallel trial execution + result cache).

Experiments describe their work as :class:`~repro.runner.spec.TrialSpec`
/ :class:`~repro.runner.spec.SweepSpec` values — picklable
``(experiment id, params, seed)`` units — and submit them to the
ambient :class:`~repro.runner.runner.Runner`, which executes them on a
pluggable backend (:class:`~repro.runner.backends.SerialBackend` or
:class:`~repro.runner.backends.ProcessPoolBackend`) through an on-disk
:class:`~repro.runner.cache.ResultCache`.
Reduction happens in spec order, so ``--jobs N`` is byte-identical to
serial execution at equal seeds.
"""

# benchmarks/ledger/workloads.py imports SerialBackend from this package.
from repro.runner.backends import SerialBackend  # noqa: F401
# benchmarks/ledger/workloads.py imports these two from this package.
from repro.runner.runner import Runner, using_runner  # noqa: F401
