"""Tests for the scenario fuzzer: sampling, artifacts, minimization."""

from __future__ import annotations

import json

from repro.scenario.spec import ChurnSpec, FecSpec, LossSpec, ScenarioSpec
from repro.validate import fuzz as fuzz_module
from repro.validate.fuzz import (
    ARTIFACT_FORMAT,
    TrialOutcome,
    _traffic_end,
    artifact_payload,
    load_artifact_spec,
    minimize_spec,
    run_fuzz,
    run_spec,
    sample_spec,
    write_artifact,
)


class TestSampling:
    def test_sampling_is_deterministic(self):
        assert sample_spec(0, 7) == sample_spec(0, 7)
        assert sample_spec(0, 7).digest() == sample_spec(0, 7).digest()

    def test_distinct_trials_differ(self):
        digests = {sample_spec(0, index).digest() for index in range(20)}
        assert len(digests) == 20

    def test_distinct_seeds_differ(self):
        assert sample_spec(0, 3) != sample_spec(1, 3)

    def test_samples_are_valid_and_bounded(self):
        for index in range(50):
            spec = sample_spec(2, index)
            # Constructing the frozen spec validates every field.
            assert spec.topology.member_count() <= 40
            measurement = spec.measurement
            assert measurement.oracle and measurement.drain
            assert measurement.duration is not None
            # Termination guarantees (see fuzz module docstring).
            assert spec.policy.max_recovery_time is not None
            assert spec.policy.max_search_rounds is not None
            assert spec.policy.session_interval is not None

    def test_samples_round_trip_through_json(self):
        for index in range(10):
            spec = sample_spec(3, index)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_traffic_end_covers_all_kinds(self):
        for index in range(30):
            spec = sample_spec(4, index)
            assert _traffic_end(spec.traffic) >= 0.0

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
                # Throttled senders get extra drain headroom.
                assert spec.measurement.duration >= (
                    _traffic_end(spec.traffic) + 1000.0 / cc.min_rate
                )

    def test_adapt_sampled_in_both_modes(self):
        """The fuzzer must exercise static AND adaptive hierarchies."""
        modes = [sample_spec(8, index).adapt.enabled for index in range(60)]
        assert True in modes and False in modes
        # Roughly the configured ~30% on-rate, not a token one-off.
        assert 5 <= sum(modes) <= 40

    def test_adapt_samples_are_bounded(self):
        for index in range(60):
            adapt = sample_spec(8, index).adapt
            if adapt.enabled:
                assert adapt.mode == "passive"
                assert adapt.update_interval > 0.0
                assert adapt.hysteresis >= 0.0
                assert 1 <= adapt.max_reparents <= 6
                assert 0.0 < adapt.ewma_alpha <= 1.0


class TestRunSpec:
    def test_clean_trial(self):
        outcome = run_spec(sample_spec(0, 0))
        assert not outcome.failed
        assert outcome.failure_key == ""
        assert outcome.records_checked > 0
        assert outcome.events_fired > 0

    def test_cc_enabled_sample_runs_clean(self):
        index = next(i for i in range(60)
                     if sample_spec(7, i).congestion.enabled)
        outcome = run_spec(sample_spec(7, index))
        assert not outcome.failed
        assert outcome.records_checked > 0

    def test_adapt_enabled_sample_runs_clean(self):
        index = next(i for i in range(80)
                     if sample_spec(8, i).adapt.enabled)
        outcome = run_spec(sample_spec(8, index))
        assert not outcome.failed
        assert outcome.records_checked > 0

    def test_crash_is_captured_not_raised(self):
        # An unsatisfiable build (detect_all holders > group size)
        # must come back as an error outcome, not an exception.
        spec = sample_spec(0, 0)
        bad = spec.with_(traffic=spec.traffic.__class__(
            kind="detect_all", holders=10_000))
        outcome = run_spec(bad)
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
        index = next(i for i in range(80)
                     if sample_spec(8, i).adapt.enabled)
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
            churn=ChurnSpec(kind="random", leave_rate=0.01),
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
            churn=ChurnSpec(kind="random", leave_rate=0.01),
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
            churn=ChurnSpec(kind="random", leave_rate=0.01),
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
        trials = 6
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

    def test_progress_callback_fires_per_trial(self):
        seen = []
        run_fuzz(trials=3, seed=1,
                 progress=lambda index, outcome: seen.append(index))
        assert seen == [0, 1, 2]


def test_fuzz_acceptance_batch():
    """A slice of the acceptance run (200 trials is the CLI gate)."""
    report = run_fuzz(trials=40, seed=0)
    assert report.ok
