"""Design-knob sweep tests (repro.experiments.sweeps)."""

import pytest

from repro.api.runner import TrialStats
from repro.experiments import paper_scenario, policies
from repro.experiments.sweeps import (
    SweepResult,
    sweep_cold_start,
    sweep_faro_config,
    sweep_predictor,
)


@pytest.fixture(scope="module")
def tiny_scenario():
    # 4 jobs on 14 replicas, 12 evaluation minutes: enough to exercise the
    # machinery without making the suite slow.
    return paper_scenario(size=14, num_jobs=4, duration_minutes=12, seed=0)


def fake_stats(lost: float) -> TrialStats:
    return TrialStats(
        policy="p",
        lost_utility_mean=lost,
        lost_utility_sd=0.0,
        lost_effective_mean=lost,
        lost_effective_sd=0.0,
        violation_rate_mean=lost / 10,
        violation_rate_sd=0.0,
    )


class TestSweepResult:
    def test_best_value(self):
        result = SweepResult(parameter="x")
        result.add(0.9, fake_stats(1.0))
        result.add(0.95, fake_stats(0.4))
        result.add(0.99, fake_stats(0.7))
        assert result.best_value() == 0.95

    def test_rows_shape(self):
        result = SweepResult(parameter="x")
        result.add("a", fake_stats(1.0))
        rows = result.rows()
        assert len(rows) == 1
        assert rows[0][0] == "a"
        assert len(rows[0]) == 4

    def test_empty_best_raises(self):
        with pytest.raises(ValueError):
            SweepResult(parameter="x").best_value()


class TestSweepFaroConfig:
    def test_rho_max_sweep_runs(self, tiny_scenario):
        result = sweep_faro_config(
            tiny_scenario, "rho_max", [0.9, 0.95], simulator="flow"
        )
        assert result.parameter == "rho_max"
        assert result.values == [0.9, 0.95]
        assert all(s.lost_utility_mean >= 0 for s in result.stats)

    def test_unknown_parameter_rejected(self, tiny_scenario):
        with pytest.raises(ValueError):
            sweep_faro_config(tiny_scenario, "vibes", [1, 2])

    def test_empty_values_rejected(self, tiny_scenario):
        with pytest.raises(ValueError):
            sweep_faro_config(tiny_scenario, "rho_max", [])

    def test_period_sweep_distinct_results(self, tiny_scenario):
        # A 1-minute period re-solves 12 times; a 12-minute period once.
        result = sweep_faro_config(
            tiny_scenario, "period", [60.0, 720.0], simulator="flow"
        )
        assert len(result.stats) == 2


class TestSweepColdStart:
    def test_runs_on_request_simulator(self, tiny_scenario):
        result = sweep_cold_start(tiny_scenario, [0.0, 60.0])
        assert result.parameter == "cold_start_seconds"
        assert len(result.stats) == 2

    def test_rejects_negative(self, tiny_scenario):
        with pytest.raises(ValueError):
            sweep_cold_start(tiny_scenario, [-1.0])

    def test_rejects_empty(self, tiny_scenario):
        with pytest.raises(ValueError):
            sweep_cold_start(tiny_scenario, [])


class TestSweepPredictor:
    def test_persistence_only(self, tiny_scenario):
        result = sweep_predictor(tiny_scenario, kinds=("persistence",))
        assert result.values == ["persistence"]

    def test_persistence_trains_nothing(self, tiny_scenario, monkeypatch):
        """The persistence arm is the nhits arm's controller without the
        trained forecasters: it must not train N-HiTS."""

        def no_training(*args, **kwargs):
            raise AssertionError("the persistence arm trained N-HiTS")

        monkeypatch.setattr(policies, "_PREDICTOR_CACHE", {})
        monkeypatch.setattr(policies.NHiTSForecaster, "fit_many", no_training)
        result = sweep_predictor(tiny_scenario, kinds=("persistence",))
        [stats] = result.stats
        assert stats.policy == "faro-fairsum-persistence"
        assert stats.results[0].policy_name.startswith("Faro")

    def test_unknown_kind_rejected(self, tiny_scenario):
        with pytest.raises(ValueError):
            sweep_predictor(tiny_scenario, kinds=("oracle",))

    def test_empty_kinds_rejected(self, tiny_scenario):
        with pytest.raises(ValueError):
            sweep_predictor(tiny_scenario, kinds=())
