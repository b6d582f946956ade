"""Fault-injection tests: injector, router kill API, reconciliation, recovery."""

import numpy as np
import pytest

from repro.cluster import RESNET34, InferenceJobSpec, RayServeCluster, ResourceQuota
from repro.cluster.models import ModelProfile
from repro.cluster.router import JobRouter
from repro.baselines.aiad import AIADPolicy
from repro.sim import Simulation, SimulationConfig
from repro.sim.faults import FaultConfig, FaultInjector


def make_router(replicas=4, seed=0):
    return JobRouter(
        job_name="job",
        model=ModelProfile(name="m", proc_time=0.18, proc_jitter=0.0),
        initial_replicas=replicas,
        cold_start_range=(0.0, 0.0),
        seed=seed,
    )


class TestFaultConfig:
    def test_invalid_mttf(self):
        with pytest.raises(ValueError):
            FaultConfig(mttf_seconds=0.0)


class TestFaultInjector:
    def test_deterministic_given_seed(self):
        a = FaultInjector(FaultConfig(mttf_seconds=100.0, seed=7))
        b = FaultInjector(FaultConfig(mttf_seconds=100.0, seed=7))
        samples_a = [a.sample("j", 10, 50.0) for _ in range(20)]
        samples_b = [b.sample("j", 10, 50.0) for _ in range(20)]
        assert samples_a == samples_b

    def test_rate_scales_with_replicas(self):
        injector = FaultInjector(FaultConfig(mttf_seconds=1000.0, seed=1))
        total_small = sum(injector.sample("a", 1, 10.0) for _ in range(1000))
        injector.reset()
        total_large = sum(injector.sample("a", 50, 10.0) for _ in range(1000))
        assert total_large > 10 * total_small

    def test_never_exceeds_replica_count(self):
        injector = FaultInjector(FaultConfig(mttf_seconds=0.1, seed=2))
        for _ in range(100):
            assert injector.sample("a", 3, 10.0) <= 3

    def test_zero_cases(self):
        injector = FaultInjector(FaultConfig(seed=0))
        assert injector.sample("a", 0, 10.0) == 0
        assert injector.sample("a", 5, 0.0) == 0

    def test_counters_and_reset(self):
        injector = FaultInjector(FaultConfig(mttf_seconds=1.0, seed=3))
        injector.sample("a", 10, 10.0)
        assert injector.total_failures > 0
        injector.reset()
        assert injector.total_failures == 0

    def test_invalid_inputs(self):
        injector = FaultInjector(FaultConfig(seed=0))
        with pytest.raises(ValueError):
            injector.sample("a", -1, 1.0)
        with pytest.raises(ValueError):
            injector.sample("a", 1, -1.0)


class TestRouterFailReplica:
    def test_kill_reduces_count(self):
        router = make_router(replicas=4)
        victim = router.fail_replica(now=0.0)
        assert victim is not None
        assert router.replica_count == 3
        assert router.totals.failures == 1

    def test_kill_empty_pool(self):
        router = make_router(replicas=0)
        assert router.fail_replica(now=0.0) is None
        assert router.totals.failures == 0

    def test_requests_still_served_after_kill(self):
        router = make_router(replicas=2)
        router.fail_replica(now=0.0)
        latency = router.offer(1.0)
        assert np.isfinite(latency)

    def test_kill_all_then_requests_drop(self):
        router = make_router(replicas=2)
        router.fail_replica(0.0)
        router.fail_replica(0.0)
        assert router.replica_count == 0
        assert np.isinf(router.offer(1.0))


class TestReconcile:
    def _cluster(self):
        jobs = [InferenceJobSpec.with_default_slo("a", RESNET34)]
        return RayServeCluster(
            jobs, initial_replicas={"a": 4}, cold_start_range=(30.0, 30.0)
        )

    def test_recreates_failed_pods(self):
        cluster = self._cluster()
        cluster.routers["a"].fail_replica(now=100.0)
        assert cluster.routers["a"].replica_count == 3
        recreated = cluster.reconcile(now=110.0)
        assert recreated == {"a": 1}
        assert cluster.routers["a"].replica_count == 4

    def test_recreated_pod_pays_cold_start(self):
        cluster = self._cluster()
        cluster.routers["a"].fail_replica(now=100.0)
        cluster.reconcile(now=110.0)
        # 3 old replicas ready, the new one still cold-starting for 30 s.
        assert cluster.routers["a"].ready_replica_count(120.0) == 3
        assert cluster.routers["a"].ready_replica_count(150.0) == 4

    def test_noop_when_healthy(self):
        cluster = self._cluster()
        assert cluster.reconcile(now=10.0) == {}


class TestEndToEndFaults:
    def _run(self, faults, minutes=20, seed=0):
        jobs = [InferenceJobSpec.with_default_slo("a", RESNET34)]
        trace = {"a": np.full(minutes, 300.0)}  # 5 req/s steady
        policy = AIADPolicy(slos={"a": jobs[0].slo.target})
        config = SimulationConfig(
            duration_minutes=minutes, seed=seed, faults=faults,
            cold_start_range=(10.0, 10.0),
        )
        simulation = Simulation(jobs, trace, policy, ResourceQuota.of_replicas(12),
                                config=config, initial_replicas={"a": 4})
        return simulation.run()

    def test_fault_free_metadata_absent(self):
        result = self._run(faults=None)
        assert "total_failures" not in result.metadata

    def test_failures_recorded_in_metadata(self):
        # 60 s MTTF guarantees many failures over 20 minutes.
        result = self._run(faults=FaultConfig(mttf_seconds=60.0, seed=1))
        assert result.metadata["total_failures"] > 0
        assert result.metadata["failures_injected"]["a"] > 0

    def test_recovery_keeps_service_alive(self):
        # Even under constant churn the job keeps serving most requests:
        # reconciliation + autoscaler recreate capacity.
        result = self._run(faults=FaultConfig(mttf_seconds=300.0, seed=2))
        series = result.jobs["a"]
        assert series.total_arrivals > 0
        assert series.drop_fraction < 0.5

    def _run_fixed(self, faults, minutes=20, seed=0):
        # FairShare pins the allocation so the fault effect is isolated
        # (reactive policies confound it by re-scaling on degraded latency).
        from repro.baselines.fairshare import FairSharePolicy

        jobs = [InferenceJobSpec.with_default_slo("a", RESNET34)]
        trace = {"a": np.full(minutes, 600.0)}  # 10 req/s on 3 replicas
        config = SimulationConfig(
            duration_minutes=minutes, seed=seed, faults=faults,
            cold_start_range=(20.0, 20.0),
        )
        simulation = Simulation(
            jobs, trace, FairSharePolicy(total_replicas=3),
            ResourceQuota.of_replicas(3), config=config, initial_replicas={"a": 3},
        )
        return simulation.run()

    def test_faults_degrade_fixed_allocation(self):
        clean = self._run_fixed(faults=None)
        faulty = self._run_fixed(faults=FaultConfig(mttf_seconds=120.0, seed=3))
        assert faulty.metadata["total_failures"] > 0
        assert faulty.cluster_slo_violation_rate > clean.cluster_slo_violation_rate
