"""Tests for the on-disk result cache."""

import json

from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.spec import TrialSpec
from repro.runner._testing import trial_square


def spec(x=3, seed=7, experiment_id="exp"):
    return TrialSpec(experiment_id, trial_square, {"x": x}, seed)


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(spec()) is None
        cache.put(spec(), {"value": 16}, events_fired=5, elapsed_s=0.1)
        entry = cache.get(spec())
        assert entry["result"] == {"value": 16}
        assert entry["events_fired"] == 5
        assert entry["seed"] == 7

    def test_distinct_specs_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec(seed=7), "seven")
        cache.put(spec(seed=8), "eight")
        assert cache.get(spec(seed=7))["result"] == "seven"
        assert cache.get(spec(seed=8))["result"] == "eight"
        assert cache.entry_count() == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(spec(), {"value": 16})
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(spec()) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(spec(), {"value": 16})
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["schema"] = -1
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(spec()) is None

    def test_experiment_ids_partition_directories(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec(experiment_id="a/b"), 1)
        assert (tmp_path / "a_b").is_dir()

    def test_default_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RRMP_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert ResultCache().root == tmp_path / "elsewhere"

    def test_nan_results_survive_the_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec(), {"latency": float("nan")})
        value = cache.get(spec())["result"]["latency"]
        assert value != value  # NaN round-trips through the JSON layer
