"""The collector contract: a run makes no reference cycles, so
``Simulator.run`` and a sweep trial pause CPython's cyclic collector,
leave it as they found it, and a finished trial is young garbage."""

import dataclasses
import gc
import weakref

import pytest

from repro.experiments.base import late_request
from repro.runner.backends import execute_trial
from repro.scale.engine import run_flat
from repro.scenario.builder import scenario
from repro.scenario.materialize import build_group, require_envelope
from repro.scenario.library import get_scenario, scenario_names
from repro.sim.engine import Simulator
from repro.tree.rmtp import TreeSimulation
from tests.conftest import cycles_left_by


@pytest.fixture(params=[True, False], ids=["on", "off"])
def collector(request):
    """The collector set on or off for the test, restored after it."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


def boom(*_args):
    raise RuntimeError("boom")


class TestStateIsRestored:
    def test_run_pauses_and_restores(self, collector):
        sim, seen = Simulator(), []
        sim.after(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_run_restores_when_a_callback_raises(self, collector):
        sim = Simulator()
        sim.after(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert gc.isenabled() is collector

    def test_trial_pauses_and_restores(self, collector):
        outcome = execute_trial(lambda params, seed: gc.isenabled(), {}, 0)
        assert outcome.value is False
        assert gc.isenabled() is collector

    def test_trial_restores_when_it_raises(self, collector):
        with pytest.raises(RuntimeError, match="boom"):
            execute_trial(boom, {}, 0)
        assert gc.isenabled() is collector


#: Weak references to the simulators :func:`late_request_trial` ran.
RAN = []


def late_request_trial(params, seed):
    """A sweep trial whose graph (member and policy, member and network)
    dies as cyclic garbage: ``ablation_c``'s §3.2 late request."""
    built = late_request(scenario("late", seed=seed).policy(c=4.0)
                         .protocol(max_search_rounds=300).measure(horizon=1_500.0), 100, 200.0)
    RAN.append(weakref.ref(built.simulation.sim))
    built.simulation.run(until=199.0)
    return built.run().search_time


class TestFinishedTrial:
    def test_one_young_collection_frees_it(self):
        """Paused for the trial, everything it made is still young when
        it returns; with the collector on during it, the trial's older
        objects would wait for a full collection."""
        RAN.clear()
        gc.collect()
        outcome = execute_trial(late_request_trial, {}, 1)
        assert outcome.value is not None
        gc.collect(0)
        assert RAN[0]() is None


def without_trace(spec):
    return spec.with_(measurement=dataclasses.replace(spec.measurement, keep_trace=False))


def accepted(runner):
    names = []
    for name in scenario_names():
        try:
            require_envelope(get_scenario(name), runner)
        except ValueError:
            continue
        names.append(name)
    return names


class TestRegistryRunsMakeNoCycles:
    """Every registry scenario, on every runner that accepts it, leaves
    no cyclic garbage with its built scenario still alive."""

    @pytest.mark.parametrize("trace", [True, False], ids=["trace", "no-trace"])
    @pytest.mark.parametrize("name", scenario_names())
    def test_object_engine(self, name, trace):
        spec = get_scenario(name)
        built = (spec if trace else without_trace(spec)).build()
        assert cycles_left_by(built.run) == 0

    @pytest.mark.parametrize("name", accepted("tree"))
    def test_tree(self, name):
        built = build_group(require_envelope(get_scenario(name), "tree"), TreeSimulation)
        assert cycles_left_by(built.run) == 0

    @pytest.mark.parametrize("name", accepted("flat"))
    def test_flat(self, name):
        assert cycles_left_by(lambda: run_flat(get_scenario(name))) == 0
