"""Tests for the serial and process-pool execution backends."""

import pytest

from repro.runner.backends import ProcessPoolBackend, SerialBackend
from repro.runner.spec import SweepSpec, TrialSpec
from repro.runner._testing import trial_draw, trial_square


def specs(count=6):
    return SweepSpec("exp", trial_square, [{"x": x} for x in range(count)], [1, 2]).trials()


class TestSerialBackend:
    def test_runs_in_order(self):
        outcomes = SerialBackend().run(specs())
        assert [o.value["value"] for o in outcomes] == [
            x * x + seed for x in range(6) for seed in (1, 2)
        ]

    def test_accounts_elapsed_time(self):
        outcomes = SerialBackend().run(specs(1))
        assert all(o.elapsed_s >= 0.0 for o in outcomes)


class TestProcessPoolBackend:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(0)

    def test_empty_task_list(self):
        assert ProcessPoolBackend(2).run([]) == []

    def test_matches_serial_results_and_order(self):
        serial = [o.value for o in SerialBackend().run(specs())]
        pooled = [o.value for o in ProcessPoolBackend(2).run(specs())]
        assert pooled == serial

    def test_seeded_randomness_is_position_independent(self):
        sweep = SweepSpec("exp", trial_draw, [{"bound": 100}], list(range(8)))
        serial = [o.value for o in SerialBackend().run(sweep.trials())]
        pooled = [o.value for o in ProcessPoolBackend(2).run(sweep.trials())]
        assert pooled == serial
        # Distinct seeds produce distinct streams.
        assert serial[0]["draws"] != serial[1]["draws"]

    def test_trial_exception_propagates(self):
        bad = TrialSpec("exp", trial_square, {"x": "not-an-int"}, 0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(2).run([bad] * 3)

    def test_single_job_pool_degrades_to_inline(self):
        outcomes = ProcessPoolBackend(1).run(specs(2))
        assert [o.value["value"] for o in outcomes] == [1, 2, 2, 3]

    def test_pool_is_reused_across_runs_and_close_is_idempotent(self):
        backend = ProcessPoolBackend(2)
        try:
            backend.run(specs(3))
            first = backend._executor
            assert first is not None
            backend.run(specs(3))
            assert backend._executor is first  # no per-run pool spin-up
        finally:
            backend.close()
        assert backend._executor is None
        backend.close()  # idempotent
        # A closed backend lazily re-creates its pool on the next run.
        try:
            assert [o.value["value"] for o in backend.run(specs(2))] == [1, 2, 2, 3]
        finally:
            backend.close()
