"""Tests for TrialSpec / SweepSpec fan-out and cache keying."""

import pickle

import pytest

from repro.runner.spec import CACHE_SCHEMA_VERSION, SweepSpec, TrialSpec, canonical_params
from repro.runner._testing import trial_square


class TestCanonicalParams:
    def test_key_order_insensitive(self):
        assert canonical_params({"a": 1, "b": 2}) == canonical_params({"b": 2, "a": 1})

    def test_tuples_and_lists_collapse(self):
        assert canonical_params({"xs": (1, 2)}) == canonical_params({"xs": [1, 2]})

    def test_distinct_values_distinct(self):
        assert canonical_params({"a": 1}) != canonical_params({"a": 2})


class TestTrialSpec:
    def test_cache_key_stable_and_distinct(self):
        spec = TrialSpec("exp", trial_square, {"x": 3}, 7)
        assert spec.cache_key() == TrialSpec("exp", trial_square, {"x": 3}, 7).cache_key()
        assert spec.cache_key() != TrialSpec("exp", trial_square, {"x": 3}, 8).cache_key()
        assert spec.cache_key() != TrialSpec("exp", trial_square, {"x": 4}, 7).cache_key()
        assert spec.cache_key() != TrialSpec("other", trial_square, {"x": 3}, 7).cache_key()

    def test_picklable(self):
        spec = TrialSpec("exp", trial_square, {"x": 3}, 7)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.trial({"x": 3}, 7) == {"value": 16, "seed": 7}

    def test_schema_version_in_key(self, monkeypatch):
        spec = TrialSpec("exp", trial_square, {"x": 3}, 7)
        before = spec.cache_key()
        monkeypatch.setattr("repro.runner.spec.CACHE_SCHEMA_VERSION",
                            CACHE_SCHEMA_VERSION + 1)
        assert spec.cache_key() != before

    def test_code_fingerprint_in_key(self, monkeypatch):
        spec = TrialSpec("exp", trial_square, {"x": 3}, 7)
        before = spec.cache_key()
        monkeypatch.setattr("repro.runner.spec.code_fingerprint",
                            lambda: "different-source-tree")
        assert spec.cache_key() != before


class TestSweepSpec:
    def test_fanout_grid_major_seed_minor(self):
        sweep = SweepSpec("exp", trial_square, [{"x": 1}, {"x": 2}], [10, 11])
        trials = sweep.trials()
        assert [(t.params["x"], t.seed) for t in trials] == [
            (1, 10), (1, 11), (2, 10), (2, 11)
        ]
        assert all(t.experiment_id == "exp" for t in trials)

    def test_group_chunks_per_point(self):
        sweep = SweepSpec("exp", trial_square, [{"x": 1}, {"x": 2}], [0, 1, 2])
        grouped = sweep.group(list(range(6)))
        assert grouped == [[0, 1, 2], [3, 4, 5]]

    def test_group_rejects_wrong_length(self):
        sweep = SweepSpec("exp", trial_square, [{"x": 1}], [0, 1])
        with pytest.raises(ValueError, match="expects 2 results"):
            sweep.group([1, 2, 3])
