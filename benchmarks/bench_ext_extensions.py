"""Extension benches: the §7 directions this reproduction implements.

Not paper tables -- the paper lists these as open problems / future work
(heterogeneous CPU/GPU mixes, budget-limited clouds, decentralization,
request batching).  Each bench quantifies the extension against the
natural baseline and pins the expected shape:

- hetero: admitting GPU replica types must not lose to CPU-only, and must
  win when SLOs are tighter than the CPU processing time allows.
- budget cloud: Faro's budget allocation beats the Mark-style independent
  greedy and the even-dollar split on skewed workloads under a tight
  budget.
- decentralized: per-group controllers with share rebalancing approach the
  centralized controller's utility (within a tolerance) at G in {2, 5}.
- batching: under overload, the batching router's p99 beats the unbatched
  router's (throughput amortization wins the latency trade).
"""

import numpy as np

from benchmarks.conftest import write_result
from repro.cloud import (
    DEFAULT_CATALOG,
    CloudJob,
    evaluate_planner,
    even_split_plan,
    mark_greedy_plan,
    solve_budget_allocation,
)
from repro.cluster.batching import BatchingJobRouter, BatchProfile
from repro.cluster.kubernetes import ResourceQuota
from repro.core.autoscaler import FaroConfig, JobSpec
from repro.core.decentralized import DecentralizedFaro
from repro.core.utility import SLO
from repro.experiments.report import format_table
from repro.hetero import (
    CPU_SMALL,
    GPU_T4,
    HeteroCapacity,
    HeteroJob,
    HeteroProblem,
    solve_hetero_allocation,
)
from repro.sim.analytic import FlowSimulation
from repro.sim.simulation import SimulationConfig
from repro.traces import standard_job_mix

SLO_720 = SLO(target=0.72, percentile=99.0)
SLO_TIGHT = SLO(target=0.15, percentile=99.0)


def test_ext_hetero_allocation(benchmark):
    """CPU/GPU mix vs CPU-only on a mix of loose- and tight-SLO jobs."""
    jobs = [
        HeteroJob(name="loose-0", slo=SLO_720, proc_time=0.18, arrival_rate=20.0),
        HeteroJob(name="loose-1", slo=SLO_720, proc_time=0.18, arrival_rate=12.0),
        HeteroJob(name="tight-0", slo=SLO_TIGHT, proc_time=0.18, arrival_rate=15.0),
        HeteroJob(name="tight-1", slo=SLO_TIGHT, proc_time=0.18, arrival_rate=8.0),
    ]
    capacity = HeteroCapacity(cpus=24, mem=64, accels=4)

    def run():
        cpu_only = solve_hetero_allocation(HeteroProblem(jobs, [CPU_SMALL], capacity))
        mixed = solve_hetero_allocation(
            HeteroProblem(jobs, [CPU_SMALL, GPU_T4], capacity)
        )
        return cpu_only, mixed

    cpu_only, mixed = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["cpu-only", f"{cpu_only.total_utility:.3f}",
         f"{cpu_only.utilities['tight-0']:.3f}", f"{cpu_only.accels_used:.0f}"],
        ["cpu+gpu", f"{mixed.total_utility:.3f}",
         f"{mixed.utilities['tight-0']:.3f}", f"{mixed.accels_used:.0f}"],
    ]
    text = format_table(
        ["catalog", "total utility", "tight-job utility", "accels used"],
        rows,
        title="== Extension: heterogeneous CPU/GPU allocation ==",
    )
    write_result("ext_hetero", text)
    # Tight SLOs (below CPU processing time) are unreachable on CPUs alone.
    assert cpu_only.utilities["tight-0"] < 0.9
    assert mixed.utilities["tight-0"] > cpu_only.utilities["tight-0"]
    assert mixed.total_utility >= cpu_only.total_utility - 1e-9


def test_ext_budget_cloud(benchmark):
    """Budget-limited cloud: Faro vs Mark-greedy vs even-dollar split."""
    minutes = 60
    mix = standard_job_mix(num_jobs=4, days=2, rate_hi=1200.0, seed=3)
    traces = {t.name: t.eval[:minutes] for t in mix}
    jobs = [
        CloudJob(name=t.name, slo=SLO_720, proc_time=0.18, arrival_rate=0.0)
        for t in mix
    ]
    budget = 1.6  # tight: ~half of what unconstrained provisioning wants

    def run():
        out = {}
        for name, planner in [
            ("faro-budget", solve_budget_allocation),
            ("mark-greedy", mark_greedy_plan),
            ("even-split", even_split_plan),
        ]:
            out[name] = evaluate_planner(
                planner, jobs, traces, DEFAULT_CATALOG, budget, planner_name=name
            )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name, f"{r.avg_lost_utility:.3f}", f"{r.mean_cost_per_hour:.3f}"]
        for name, r in results.items()
    ]
    text = format_table(
        ["planner", "avg lost utility", "mean $/h"],
        rows,
        title=f"== Extension: budget-limited cloud (budget ${budget}/h) ==",
    )
    write_result("ext_budget_cloud", text)
    lost = {name: r.avg_lost_utility for name, r in results.items()}
    assert lost["faro-budget"] <= lost["mark-greedy"] + 1e-6
    assert lost["faro-budget"] <= lost["even-split"] + 1e-6
    assert all(r.mean_cost_per_hour <= budget + 1e-9 for r in results.values())


def test_ext_decentralized(benchmark):
    """Decentralized Faro approaches centralized utility at G in {2, 5}."""
    minutes = 60
    total = 32
    mix = standard_job_mix(num_jobs=10, days=2, seed=0)
    traces = {t.name: t.eval[:minutes] for t in mix}
    specs = [JobSpec(name=t.name, slo=SLO_720, proc_time=0.18) for t in mix]
    from repro.cluster import RESNET34, InferenceJobSpec

    cluster_jobs = [InferenceJobSpec.with_default_slo(t.name, RESNET34) for t in mix]
    config = FaroConfig(objective="sum", solver="greedy", num_samples=4, seed=0)

    def run_policy(num_groups):
        policy = DecentralizedFaro(
            specs, total_replicas=total, num_groups=num_groups, config=config
        )
        simulation = FlowSimulation(
            cluster_jobs,
            traces,
            policy,
            ResourceQuota.of_replicas(total),
            config=SimulationConfig(duration_minutes=minutes, seed=0),
        )
        return simulation.run()

    def run():
        return {groups: run_policy(groups) for groups in (1, 2, 5)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [f"G={groups}", f"{r.avg_lost_cluster_utility:.3f}",
         f"{r.cluster_slo_violation_rate:.4f}"]
        for groups, r in results.items()
    ]
    text = format_table(
        ["controllers", "lost utility", "violation rate"],
        rows,
        title="== Extension: decentralized Faro (32 replicas, 10 jobs) ==",
    )
    write_result("ext_decentralized", text)
    central = results[1].avg_lost_cluster_utility
    for groups in (2, 5):
        assert results[groups].avg_lost_cluster_utility <= central + 1.0


def test_ext_batching(benchmark):
    """Batching router beats the unbatched router under overload."""
    lam, seconds, replicas = 40.0, 60.0, 4
    profile = BatchProfile.from_proc_time(0.18, setup_fraction=0.6)
    rng = np.random.default_rng(0)
    arrivals = np.cumsum(rng.exponential(1.0 / lam, int(lam * seconds)))

    def p99(max_batch_size):
        router = BatchingJobRouter(
            profile, replicas=replicas, max_batch_size=max_batch_size,
            batch_timeout=0.1, queue_threshold=500,
        )
        completed = []
        for t in arrivals:
            completed.extend(router.offer(t))
        completed.extend(router.flush())
        latencies = [c.latency for c in completed if not c.dropped]
        return float(np.percentile(latencies, 99))

    def run():
        return {size: p99(size) for size in (1, 4, 8, 16)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[f"b={size}", f"{value:.3f}"] for size, value in results.items()]
    text = format_table(
        ["max batch size", "p99 latency (s)"],
        rows,
        title="== Extension: request batching at 40 req/s on 4 replicas ==",
    )
    write_result("ext_batching", text)
    assert results[8] < results[1]
