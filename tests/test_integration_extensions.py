"""Integration test tying a §7 extension to the core loop: decentralized
control inside the request-level simulator."""

import numpy as np

from repro.cluster import RESNET34, InferenceJobSpec, ResourceQuota
from repro.core.autoscaler import FaroConfig, JobSpec
from repro.core.decentralized import DecentralizedFaro
from repro.sim import Simulation, SimulationConfig
from repro.traces import standard_job_mix


def small_mix(num_jobs, minutes):
    mix = standard_job_mix(num_jobs=num_jobs, days=2, rate_hi=500.0, seed=0)
    jobs = [InferenceJobSpec.with_default_slo(t.name, RESNET34) for t in mix]
    traces = {t.name: t.eval[:minutes] for t in mix}
    return jobs, traces


class TestDecentralizedInRequestSimulator:
    def test_end_to_end(self):
        minutes, total = 15, 12
        jobs, traces = small_mix(4, minutes)
        policy = DecentralizedFaro(
            [JobSpec(name=j.name, slo=j.slo, proc_time=j.model.proc_time) for j in jobs],
            total_replicas=total,
            num_groups=2,
            config=FaroConfig(objective="sum", solver="greedy", num_samples=4, seed=0),
        )
        simulation = Simulation(
            jobs, traces, policy, ResourceQuota.of_replicas(total),
            config=SimulationConfig(duration_minutes=minutes, seed=0),
        )
        result = simulation.run()
        assert result.minutes == minutes
        assert sum(policy.shares) == total
        # The quota is shared: per-minute replica totals never exceed it.
        totals = np.sum([series.replicas for series in result.jobs.values()], axis=0)
        assert int(totals.max()) <= total
