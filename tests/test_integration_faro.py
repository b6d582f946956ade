"""Integration tests: the headline claims on miniature scenarios.

These exercise the full stack (traces -> predictors -> optimizer ->
autoscaler -> simulator -> metrics) at a size that runs in seconds, and pin
the *direction* of the paper's results rather than exact numbers.
"""

import numpy as np
import pytest

from repro.api import run_policy
from repro.cluster.job import InferenceJobSpec
from repro.cluster.kubernetes import ResourceQuota
from repro.cluster.models import ModelProfile
from repro.core.autoscaler import FaroAutoscaler, FaroConfig, JobSpec
from repro.core.hybrid import HybridAutoscaler, ReactiveConfig
from repro.core.optimizer import ClusterCapacity
from repro.experiments import paper_scenario
from repro.sim.simulation import Simulation, SimulationConfig

MODEL = ModelProfile(name="m", proc_time=0.18, proc_jitter=0.0)


@pytest.fixture(scope="module")
def mini_scenario():
    # 4 jobs, constrained cluster, 20 evaluation minutes.
    return paper_scenario(12, num_jobs=4, duration_minutes=20, days=2, rate_hi=900.0)


@pytest.fixture(scope="module")
def faro_stats(mini_scenario):
    return run_policy(mini_scenario, "faro-fairsum", trials=1, seed=0)


@pytest.fixture(scope="module")
def fairshare_stats(mini_scenario):
    return run_policy(mini_scenario, "fairshare", trials=1, seed=0)


class TestFaroVsFairShare:
    def test_lower_lost_utility(self, faro_stats, fairshare_stats):
        assert faro_stats.lost_utility_mean < fairshare_stats.lost_utility_mean

    def test_lower_violation_rate(self, faro_stats, fairshare_stats):
        assert faro_stats.violation_rate_mean <= fairshare_stats.violation_rate_mean

    def test_faro_uses_capacity_responsively(self, faro_stats, mini_scenario):
        result = faro_stats.results[0]
        replica_totals = np.sum(
            [series.replicas for series in result.jobs.values()], axis=0
        )
        assert replica_totals.max() <= mini_scenario.total_replicas
        # Allocation must actually move (not a static split).
        per_job_changes = sum(
            int(np.any(np.diff(series.replicas) != 0))
            for series in result.jobs.values()
        )
        assert per_job_changes >= 1


class TestPenaltyVariantDrops:
    def test_drops_engaged_under_heavy_overload(self):
        # One job, one replica of capacity headroom, far too much load:
        # Faro-PenaltySum should shed some traffic explicitly.
        job = InferenceJobSpec.with_default_slo("svc", MODEL)
        specs = [JobSpec(name="svc", slo=job.slo, proc_time=MODEL.proc_time)]
        faro = FaroAutoscaler(
            specs,
            ClusterCapacity.of_replicas(2),
            config=FaroConfig(objective="penaltysum", seed=0),
        )
        traces = {"svc": np.full(15, 1500.0)}  # 25 req/s >> 2 replicas
        sim = Simulation(
            [job],
            traces,
            HybridAutoscaler(faro, ReactiveConfig(), capacity_replicas=2),
            ResourceQuota.of_replicas(2),
            config=SimulationConfig(duration_minutes=15, seed=0),
        )
        result = sim.run()
        assert result.jobs["svc"].drops.sum() > 0


class TestCrossJobMovement:
    def test_resources_follow_load_shift(self):
        # Two jobs with complementary step loads under a tight budget: Faro
        # must move replicas from the idle job to the loaded one.
        jobs = [
            InferenceJobSpec.with_default_slo("up", MODEL),
            InferenceJobSpec.with_default_slo("down", MODEL),
        ]
        minutes = 30
        rising = np.concatenate([np.full(15, 60.0), np.full(15, 1200.0)])
        falling = np.concatenate([np.full(15, 1200.0), np.full(15, 60.0)])
        traces = {"up": rising, "down": falling}
        specs = [JobSpec(name=j.name, slo=j.slo, proc_time=MODEL.proc_time) for j in jobs]
        faro = FaroAutoscaler(
            specs, ClusterCapacity.of_replicas(6), config=FaroConfig(seed=0)
        )
        sim = Simulation(
            jobs,
            traces,
            HybridAutoscaler(faro, ReactiveConfig(), capacity_replicas=6),
            ResourceQuota.of_replicas(6),
            config=SimulationConfig(duration_minutes=minutes, seed=0),
        )
        result = sim.run()
        up = result.jobs["up"].replicas
        down = result.jobs["down"].replicas
        # Early: 'down' holds more replicas; late: 'up' does.
        assert down[:12].mean() > up[:12].mean()
        assert up[-5:].mean() > down[-5:].mean()


class TestQuickstart:
    def test_quickstart_runs(self):
        from repro import quickstart_faro

        result = quickstart_faro(num_jobs=2, total_replicas=6, minutes=8)
        assert result.num_jobs == 2
        assert 0.0 <= result.cluster_slo_violation_rate <= 1.0
