"""Trial-loop tests: ``execute_trials`` and ``run_policy``."""

import numpy as np
import pytest

from repro.api.runner import TrialStats, execute_trials, run_policy
from repro.experiments import paper_scenario
from repro.policy import AutoscalePolicy, ScalingDecision
from repro.sim.recorder import JobSeries, SimulationResult


def dummy_result(lost: float, policy: str = "p") -> SimulationResult:
    minutes = 4
    utility = np.full(minutes, 1.0 - lost)
    series = JobSeries(
        name="j",
        arrivals=np.full(minutes, 10, dtype=int),
        drops=np.zeros(minutes, dtype=int),
        violations=np.zeros(minutes, dtype=int),
        latency_p=np.zeros(minutes),
        utility=utility,
        effective_utility=utility.copy(),
        replicas=np.ones(minutes, dtype=int),
    )
    return SimulationResult(jobs={"j": series}, policy_name=policy)


class TestTrialStats:
    def test_mean_and_sd(self):
        stats = TrialStats.from_results("p", [dummy_result(0.2), dummy_result(0.4)])
        assert stats.lost_utility_mean == pytest.approx(0.3)
        assert stats.lost_utility_sd == pytest.approx(0.1)

    def test_single_trial_zero_sd(self):
        stats = TrialStats.from_results("p", [dummy_result(0.5)])
        assert stats.lost_utility_sd == 0.0


class FixedSharePolicy(AutoscalePolicy):
    name = "FixedShare"
    tick_interval = 30.0

    def __init__(self, share: int):
        self.share = share
        self._done = False

    def reset(self):
        self._done = False

    def tick(self, now, observations):
        if self._done:
            return None
        self._done = True
        return ScalingDecision(replicas={n: self.share for n in observations})


@pytest.fixture(scope="module")
def tiny():
    return paper_scenario(8, num_jobs=2, duration_minutes=8, days=2, rate_hi=400.0)


class TestRunTrials:
    def test_policy_factory_hook(self, tiny):
        stats = execute_trials(
            tiny, "custom", lambda sc, seed: FixedSharePolicy(3), trials=2, seed=0
        )
        assert len(stats.results) == 2
        assert stats.policy == "custom"
        assert 0.0 <= stats.violation_rate_mean <= 1.0

    def test_flow_simulator_selected(self, tiny):
        stats = execute_trials(
            tiny,
            "custom",
            lambda sc, seed: FixedSharePolicy(3),
            trials=1,
            simulator="flow",
        )
        assert stats.results[0].metadata["simulator"] == "analytic-flow"

    def test_request_simulator_default(self, tiny):
        stats = execute_trials(
            tiny, "custom", lambda sc, seed: FixedSharePolicy(3), trials=1
        )
        assert stats.results[0].metadata["simulator"] == "request-level"

    def test_unknown_simulator(self, tiny):
        with pytest.raises(ValueError):
            run_policy(tiny, "fairshare", simulator="hardware")

    def test_trials_differ_by_seed(self, tiny):
        stats = execute_trials(
            tiny, "custom", lambda sc, seed: FixedSharePolicy(3), trials=2
        )
        a, b = stats.results
        assert not np.array_equal(a.jobs[tiny.job_names[0]].arrivals,
                                  b.jobs[tiny.job_names[0]].arrivals)

    def test_baseline_by_name(self, tiny):
        stats = run_policy(tiny, "fairshare", trials=1)
        assert stats.policy == "fairshare"
        result = stats.results[0]
        # FairShare splits 8 replicas over 2 jobs -> 4 each.
        for series in result.jobs.values():
            assert series.replicas[-1] == 4
