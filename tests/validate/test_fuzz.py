"""Tests for the scenario fuzzer: sampling, artifacts, minimization."""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Literal, get_args, get_origin, get_type_hints

from repro.scenario.materialize import BuiltScenario, traffic_generator_for
from repro.scenario.spec import (
    ChurnSpec,
    FecSpec,
    LossSpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
)
from repro.sim.randomness import RandomStreams
from repro.validate import fuzz as fuzz_module
from repro.validate.fuzz import (
    ARTIFACT_FORMAT,
    MAX_MESSAGES,
    TrialOutcome,
    _shrink_candidates,
    artifact_payload,
    load_artifact_spec,
    minimize_spec,
    run_fuzz,
    run_spec,
    sample_spec,
    write_artifact,
)


def _first(seed, wanted):
    """The first trial of *seed* whose spec is *wanted* and streams messages."""
    return next(index for index in range(200)
                if wanted(spec := sample_spec(seed, index))
                and spec.traffic.kind in ("uniform", "ramp") and spec.traffic.count > 0)


class TestSampling:
    def test_sampling_is_deterministic(self):
        assert sample_spec(0, 7) == sample_spec(0, 7)
        assert sample_spec(0, 7).digest() == sample_spec(0, 7).digest()

    def test_distinct_trials_differ(self):
        digests = {sample_spec(0, index).digest() for index in range(20)}
        assert len(digests) == 20

    def test_distinct_seeds_differ(self):
        assert sample_spec(0, 3) != sample_spec(1, 3)

    def test_samples_keep_the_trial_size_and_terminate(self):
        for index in range(200):
            spec = sample_spec(0, index)
            # Constructing the frozen spec validates every field.
            assert spec.topology.member_count() <= 40
            churn = spec.churn
            assert churn.kind == "none" or churn.duration * (
                churn.leave_rate + churn.crash_rate + churn.join_rate) <= 10
            # An unbounded run: the run plan's settle rule ends it.
            assert spec.measurement == spec.measurement.__class__(oracle=True)
            # Termination guarantees (see fuzz module docstring).
            assert spec.policy.max_recovery_time is not None
            assert spec.policy.max_search_rounds is not None
            assert spec.policy.session_interval is not None
            stream = traffic_generator_for(spec.traffic, spec, RandomStreams(spec.seed))
            assert stream is None or stream.arrival_count() <= MAX_MESSAGES

    def test_samples_round_trip_through_json(self):
        for index in range(10):
            spec = sample_spec(3, index)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_every_declared_kind_is_drawn_within_200_trials(self):
        """Kinds come from each node's Literal discriminator, none from a
        table of the fuzzer's own."""
        declared = {
            (name, field_name): set(get_args(hint))
            for name, node in get_type_hints(ScenarioSpec).items() if is_dataclass(node)
            for field_name, hint in get_type_hints(node).items() if get_origin(hint) is Literal
        }
        assert len(declared) == 10  # every node but measurement
        samples = [sample_spec(0, index) for index in range(200)]
        for (name, field_name), kinds in declared.items():
            drawn = {getattr(getattr(spec, name), field_name) for spec in samples}
            assert drawn == kinds, (name, kinds - drawn)

    def test_congestion_sampled_in_both_modes(self):
        """The fuzzer must exercise open-loop AND controlled senders."""
        modes = {sample_spec(5, index).congestion.enabled
                 for index in range(40)}
        assert modes == {True, False}

    def test_cc_samples_have_valid_rate_windows(self):
        for index in range(50):
            spec = sample_spec(6, index)
            cc = spec.congestion
            if cc.enabled:
                assert 0.0 < cc.min_rate <= cc.max_rate
                assert cc.feedback_interval > 0.0

    def test_adapt_sampled_in_both_modes(self):
        """The fuzzer must exercise static AND adaptive hierarchies."""
        modes = [sample_spec(8, index).adapt.enabled for index in range(60)]
        assert True in modes and False in modes
        # Roughly the configured ~30% on-rate, not a token one-off.
        assert 5 <= sum(modes) <= 40

    def test_a_zero_latency_is_drawn_and_refused(self, monkeypatch):
        """0 is one of the scales, so the sampler offers zero latencies;
        the topology node refuses them and the sampler draws again."""
        refused = []
        init = TopologySpec.__post_init__

        def watching(node):
            try:
                init(node)
            except ValueError as error:
                refused.append(str(error))
                raise

        monkeypatch.setattr(TopologySpec, "__post_init__", watching)
        for index in range(20):
            sample_spec(0, index)
        assert any(message.startswith("intra_one_way must be > 0 and <= 1e9 ms, got 0.0")
                   for message in refused)


class TestRunSpec:
    def test_clean_trial(self):
        outcome = run_spec(sample_spec(0, 0))
        assert not outcome.failed
        assert outcome.failure_key == ""
        assert outcome.records_checked > 0
        assert outcome.events_fired > 0

    def test_cc_enabled_sample_runs_clean(self):
        index = _first(7, lambda spec: spec.congestion.enabled)
        outcome = run_spec(sample_spec(7, index))
        assert not outcome.failed
        assert outcome.records_checked > 0

    def test_adapt_enabled_sample_runs_clean(self):
        index = _first(8, lambda spec: spec.adapt.enabled)
        outcome = run_spec(sample_spec(8, index))
        assert not outcome.failed
        assert outcome.records_checked > 0

    def test_crash_is_captured_not_raised(self, monkeypatch):
        # A build or run that raises must come back as an error
        # outcome, not an exception.
        def crash(spec):
            raise RuntimeError("boom")

        monkeypatch.setattr(ScenarioSpec, "build", crash)
        outcome = run_spec(sample_spec(0, 0))
        assert outcome.failed
        assert outcome.error is not None
        assert outcome.failure_key.startswith("error:")


class TestArtifacts:
    def test_payload_and_file_round_trip(self, tmp_path):
        spec = sample_spec(0, 5)
        outcome = TrialOutcome(
            spec=spec,
            violations=[{"invariant": "recovery-liveness", "time": 1.0,
                         "message": "boom"}],
            violation_count=1,
        )
        payload = artifact_payload(outcome, fuzz_seed=0, trial_index=5)
        assert payload["format"] == ARTIFACT_FORMAT
        assert payload["digest"] == spec.digest()
        assert payload["first_violation"]["invariant"] == "recovery-liveness"
        path = write_artifact(payload, str(tmp_path / "artifacts"))
        restored = load_artifact_spec(path)
        assert restored == spec

    def test_load_bare_spec_json(self, tmp_path):
        spec = sample_spec(0, 1)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert load_artifact_spec(str(path)) == spec

    def test_error_outcome_payload(self):
        outcome = TrialOutcome(spec=sample_spec(0, 2), error="ValueError: nope")
        payload = artifact_payload(outcome, fuzz_seed=0, trial_index=2)
        assert payload["error"] == "ValueError: nope"
        assert "first_violation" not in payload

    def test_adaptive_violation_artifact_is_replayable(self, tmp_path):
        """An adaptive-topology failure must ship a one-command repro:
        the artifact keeps the adapt node, and the restored spec runs."""
        index = _first(8, lambda spec: spec.adapt.enabled)
        spec = sample_spec(8, index)
        outcome = TrialOutcome(
            spec=spec,
            violations=[{"invariant": "adaptive-topology", "time": 250.0,
                         "message": "region 2 re-parented onto empty region 3"}],
            violation_count=1,
        )
        payload = artifact_payload(outcome, fuzz_seed=8, trial_index=index)
        assert payload["first_violation"]["invariant"] == "adaptive-topology"
        path = write_artifact(payload, str(tmp_path / "artifacts"))
        restored = load_artifact_spec(path)
        assert restored == spec
        assert restored.adapt.enabled
        assert restored.digest() == spec.digest()
        replayed = run_spec(restored)  # the `validate replay` path
        assert replayed.records_checked > 0


class TestMinimization:
    def test_minimizer_strips_irrelevant_dimensions(self, monkeypatch):
        """With a stubbed runner that fails iff churn is on, the
        minimizer must drop fec and loss but keep churn."""
        spec = sample_spec(0, 0).with_(
            churn=ChurnSpec(kind="random", leave_rate=0.01, duration=100.0),
            fec=FecSpec(mode="proactive", block_size=4, parity=1),
            loss=LossSpec(kind="bernoulli", p=0.2),
        )

        def fake_run(candidate):
            outcome = TrialOutcome(spec=candidate)
            if candidate.churn.kind == "random":
                outcome.violation_count = 1
                outcome.violations = [
                    {"invariant": "recovery-liveness", "time": 0.0, "message": "x"}
                ]
            return outcome

        monkeypatch.setattr(fuzz_module, "run_spec", fake_run)
        minimized, outcome, runs = minimize_spec(spec, "invariant:recovery-liveness")
        assert minimized.churn.kind == "random"
        assert minimized.fec.mode == "off"
        assert minimized.loss.kind == "none"
        assert runs > 0
        # The minimizer hands back the verified failing outcome so the
        # caller never has to re-run the minimized spec.
        assert outcome is not None and outcome.failed
        assert outcome.spec == minimized

    def test_minimizer_can_drop_congestion(self, monkeypatch):
        """A failure independent of the controller sheds the CC node."""
        from repro.scenario.spec import CongestionSpec

        spec = sample_spec(0, 0).with_(
            churn=ChurnSpec(kind="random", leave_rate=0.01, duration=100.0),
            congestion=CongestionSpec(controller="aimd", min_rate=5.0,
                                      max_rate=100.0),
        )

        def fake_run(candidate):
            outcome = TrialOutcome(spec=candidate)
            if candidate.churn.kind == "random":
                outcome.violation_count = 1
                outcome.violations = [
                    {"invariant": "recovery-liveness", "time": 0.0, "message": "x"}
                ]
            return outcome

        monkeypatch.setattr(fuzz_module, "run_spec", fake_run)
        minimized, _outcome, _runs = minimize_spec(
            spec, "invariant:recovery-liveness")
        assert not minimized.congestion.enabled
        assert minimized.churn.kind == "random"

    def test_minimizer_can_drop_adapt(self, monkeypatch):
        """A failure independent of re-parenting sheds the adapt node."""
        from repro.scenario.spec import AdaptSpec

        spec = sample_spec(0, 0).with_(
            churn=ChurnSpec(kind="random", leave_rate=0.01, duration=100.0),
            adapt=AdaptSpec(mode="passive", update_interval=100.0),
        )

        def fake_run(candidate):
            outcome = TrialOutcome(spec=candidate)
            if candidate.churn.kind == "random":
                outcome.violation_count = 1
                outcome.violations = [
                    {"invariant": "recovery-liveness", "time": 0.0, "message": "x"}
                ]
            return outcome

        monkeypatch.setattr(fuzz_module, "run_spec", fake_run)
        minimized, _outcome, _runs = minimize_spec(
            spec, "invariant:recovery-liveness")
        assert not minimized.adapt.enabled
        assert minimized.churn.kind == "random"

    def test_candidates_reset_one_node_or_halve_one_size(self):
        spec = sample_spec(0, 0).with_(
            topology=TopologySpec(kind="chain", sizes=(4, 4)),
            traffic=TrafficSpec(kind="uniform", count=6),
            fec=FecSpec(mode="proactive", block_size=4, parity=1),
        )
        candidates = dict(_shrink_candidates(spec))
        assert candidates["reset fec"].fec == FecSpec()
        assert candidates["halve fec.block_size"].fec.block_size == 2
        assert candidates["halve topology.sizes"].topology.sizes == (4,)
        assert candidates["halve traffic.count"].traffic.count == 3
        for candidate in candidates.values():
            changed = [spec_field.name for spec_field in fields(ScenarioSpec)
                       if getattr(candidate, spec_field.name) != getattr(spec, spec_field.name)]
            assert len(changed) == 1
        # A reset that breaks the trial size or termination is not offered.
        assert "reset topology" not in candidates and "reset policy" not in candidates

    def test_minimizer_keeps_spec_when_nothing_reproduces(self, monkeypatch):
        spec = sample_spec(0, 0).with_(loss=LossSpec(kind="bernoulli", p=0.2))
        monkeypatch.setattr(
            fuzz_module, "run_spec", lambda candidate: TrialOutcome(spec=candidate)
        )
        minimized, outcome, _runs = minimize_spec(spec, "invariant:whatever")
        assert minimized == spec
        assert outcome is None


class TestRunFuzz:
    def test_clean_fuzz_session(self, tmp_path):
        report = run_fuzz(trials=10, seed=0, artifact_dir=str(tmp_path))
        assert report.ok
        assert report.failures == []
        assert list(tmp_path.iterdir()) == []
        assert report.records_checked > 0
        payload = report.to_dict()
        assert payload["ok"] is True and payload["trials"] == 10

    def test_failing_trial_writes_a_minimized_artifact(self, tmp_path, monkeypatch):
        real_run = fuzz_module.run_spec

        def failing_run(candidate):
            outcome = real_run(candidate)
            if candidate.churn.kind == "random":
                outcome.violation_count += 1
                outcome.violations = outcome.violations + [
                    {"invariant": "fake", "time": 0.0, "message": "injected"}
                ]
            return outcome

        monkeypatch.setattr(fuzz_module, "run_spec", failing_run)
        trials = 8
        churny = [i for i in range(trials)
                  if sample_spec(0, i).churn.kind == "random"]
        assert churny, "expected at least one churny sample in the window"
        report = run_fuzz(trials=trials, seed=0, artifact_dir=str(tmp_path))
        assert not report.ok
        assert len(report.failures) == len(churny)
        assert len(report.artifacts) == len(churny)
        with open(report.artifacts[0], encoding="utf-8") as handle:
            artifact = json.load(handle)
        assert artifact["format"] == ARTIFACT_FORMAT
        assert artifact["failure"] == "invariant:fake"
        # Minimization ran and (at least) kept the failure reproducing.
        restored = load_artifact_spec(report.artifacts[0])
        assert restored.churn.kind == "random"

    def test_a_run_that_leaves_a_cycle_is_a_finding(self, tmp_path, monkeypatch):
        """A run makes no reference cycles (the engine pauses the
        collector on that promise); one that does is a finding of its
        own, minimized and written out like a violated invariant."""
        finish = BuiltScenario.finish

        def leaky_finish(built):
            cycle = []
            cycle.append(cycle)
            finish(built)

        monkeypatch.setattr(BuiltScenario, "finish", leaky_finish)
        report = run_fuzz(trials=1, seed=0, artifact_dir=str(tmp_path))
        assert [failure["failure"] for failure in report.failures] == ["garbage:cyclic"]
        assert report.failures[0]["cyclic_garbage"] == 1
        assert report.minimization_runs > 0
        with open(report.artifacts[0], encoding="utf-8") as handle:
            assert json.load(handle)["failure"] == "garbage:cyclic"

    def test_progress_callback_fires_per_trial(self):
        seen = []
        run_fuzz(trials=3, seed=1,
                 progress=lambda index, outcome: seen.append(index))
        assert seen == [0, 1, 2]


def test_fuzz_acceptance_batch():
    """A slice of the acceptance run (200 trials is the CLI gate)."""
    report = run_fuzz(trials=40, seed=0)
    assert report.ok
