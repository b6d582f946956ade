"""Table 8: large-scale workloads.

Paper: 20 jobs / 70 replicas (cluster) and 100 jobs / 320 replicas
(simulation); Faro-FairSum lowers violations 3x-18.5x and lost utility
2.07x-13.76x vs baselines at both scales.

Beyond the paper's scales, ``test_table8_planner_scale`` pushes the
*planner* (the piece whose latency gates the control loop) to 200- and
500-job clusters, cold vs warm utility-table cache, and
``test_table8_planner_scale_pgd`` pushes the flat batched first-order
solver to 1000-5000 jobs -- past the wall where a converged COBYLA solve
takes minutes.
"""

import time

import numpy as np

from benchmarks.conftest import BENCH_PROFILE, write_result
from repro import api
from repro.core.hierarchical import solve_hierarchical
from repro.core.objectives import make_objective
from repro.core.optimizer import (
    AllocationProblem,
    ClusterCapacity,
    OptimizationJob,
    UtilityTableCache,
    solve_allocation,
)
from repro.core.utility import SLO
from repro.experiments.report import format_table, ratio

PAPER_20 = {
    "fairshare": (3.48, 0.14),
    "oneshot": (8.67, 0.37),
    "aiad": (2.37, 0.07),
    "mark": (1.77, 0.08),
    "faro-fairsum": (0.63, 0.02),
}
PAPER_100 = {
    "fairshare": (20.82, 0.16),
    "oneshot": (53.37, 0.48),
    "aiad": (16.72, 0.09),
    "mark": (16.24, 0.13),
    "faro-fairsum": (7.83, 0.03),
}


def test_table8_large_scale(benchmark):
    scenario_20 = api.ScenarioSpec(
        kind="large-scale",
        params={"num_jobs": 20, "total_replicas": 70, "duration_minutes": 45,
                "seed": 0},
    ).build()
    scenario_100 = api.ScenarioSpec(
        kind="large-scale",
        params={"num_jobs": 100, "total_replicas": 320, "duration_minutes": 45,
                "seed": 0},
    ).build()

    def run():
        stats_20 = {
            name: api.run_policy(
                scenario_20, name, trials=1, seed=0, predictor_profile=BENCH_PROFILE
            )
            for name in PAPER_20
        }
        stats_100 = {
            name: api.run_policy(
                scenario_100,
                name,
                trials=1,
                simulator="flow",
                seed=0,
                predictor_profile=BENCH_PROFILE,
            )
            for name in PAPER_100
        }
        return stats_20, stats_100

    stats_20, stats_100 = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for label, paper, stats in (
        ("20 jobs/70 repl", PAPER_20, stats_20),
        ("100 jobs/320 repl", PAPER_100, stats_100),
    ):
        for name, st in stats.items():
            rows.append(
                (
                    f"{label}/{name}",
                    f"lost={paper[name][0]:.2f} viol={paper[name][1]:.2f}",
                    f"lost={st.lost_utility_mean:.2f} viol={st.violation_rate_mean:.2f}",
                )
            )
    faro20 = stats_20["faro-fairsum"]
    worst20 = max(stats_20.values(), key=lambda s: s.lost_utility_mean)
    rows.append(
        (
            "20-job worst-baseline/Faro lost ratio",
            "up to 13.76x",
            f"{ratio(worst20.lost_utility_mean, faro20.lost_utility_mean):.1f}x",
        )
    )
    text = format_table(
        ["scale/policy", "paper", "measured"],
        rows,
        title="== Table 8: large-scale workloads ==",
    )
    write_result("table8_scale", text)

    for stats in (stats_20, stats_100):
        lost = {n: s.lost_utility_mean for n, s in stats.items()}
        assert lost["faro-fairsum"] == min(lost.values())


def _planner_jobs(num_jobs: int, scenarios: int = 35, seed: int = 0):
    """Synthetic planner inputs shaped like autoscaler cycle formulations."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(num_jobs):
        base = rng.uniform(5.0, 40.0)
        rates = tuple(np.maximum(rng.normal(base, base * 0.2, size=scenarios), 0.0))
        jobs.append(
            OptimizationJob(name=f"j{i}", proc_time=0.18, slo=SLO(0.72), rates=rates)
        )
    return jobs


def test_table8_planner_scale(benchmark):
    """Planner latency at 200 and 500 jobs (hierarchical G=10 solve).

    The paper stops at 100 jobs; the ROADMAP north star targets
    hundreds-of-jobs clusters, which only works if the planner itself stays
    fast.  Each point solves the same problem cold (fresh table cache) and
    warm (primed cache); results must be identical and the allocation
    feasible.
    """

    def run():
        points = []
        for num_jobs in (200, 500):
            jobs = _planner_jobs(num_jobs)
            capacity = ClusterCapacity.of_replicas(int(3.2 * num_jobs))
            objective = make_objective("fairsum")

            def solve(cache):
                return solve_hierarchical(
                    jobs, capacity, objective, groups=10, maxiter=100, seed=7,
                    table_cache=cache,
                )

            started = time.perf_counter()
            cold = solve(UtilityTableCache(maxsize=0))
            cold_s = time.perf_counter() - started
            shared = UtilityTableCache()
            solve(shared)  # prime
            started = time.perf_counter()
            warm = solve(shared)
            warm_s = time.perf_counter() - started
            points.append((num_jobs, capacity, cold, warm, cold_s, warm_s))
        return points

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for num_jobs, capacity, cold, warm, cold_s, warm_s in points:
        rows.append(
            (
                f"{num_jobs} jobs/{int(capacity.cpus)} repl planner",
                "paper: ~64x grouped speedup at 200 jobs",
                f"cold={cold_s:.2f}s warm={warm_s:.2f}s ({cold_s / max(warm_s, 1e-9):.1f}x)",
            )
        )
    text = format_table(
        ["scale", "paper", "measured"],
        rows,
        title="== Table 8 extension: planner scale (200 / 500 jobs) ==",
    )
    write_result("table8_scale_planner", text)

    for num_jobs, capacity, cold, warm, cold_s, warm_s in points:
        replicas = cold.allocation.replicas
        assert replicas.shape[0] == num_jobs
        assert np.all(replicas >= 1)
        total_cpu = float(np.sum(replicas))
        assert total_cpu <= capacity.cpus + 1e-9
        # Cache warmth cannot change the allocation.
        np.testing.assert_array_equal(replicas, warm.allocation.replicas)
        # Warm planning at 500 jobs stays interactive (well under the
        # 300 s cycle; generous bound for slow CI).
        assert warm_s < 30.0


def test_table8_planner_scale_pgd(benchmark):
    """Flat-pgd planner latency at 1000-5000 jobs.

    Beyond COBYLA's wall (a converged 1000-job COBYLA solve takes minutes)
    the batched first-order solver keeps *flat* -- ungrouped -- planning
    viable: every job still competes for the same capacity, which the
    hierarchical decomposition above gives up.  ``max_replicas_per_job``
    keeps utility tables O(cap) instead of O(cluster) at these scales.
    """

    def run():
        points = []
        for num_jobs in (1000, 2000, 5000):
            jobs = _planner_jobs(num_jobs)
            capacity = ClusterCapacity.of_replicas(3 * num_jobs)
            objective = make_objective("fairsum")
            shared = UtilityTableCache()

            def build():
                return AllocationProblem(
                    jobs,
                    capacity,
                    objective,
                    table_cache=shared,
                    max_replicas_per_job=64,
                )

            started = time.perf_counter()
            problem = build()
            build_s = time.perf_counter() - started
            started = time.perf_counter()
            allocation = solve_allocation(problem, method="pgd")
            solve_s = time.perf_counter() - started
            started = time.perf_counter()
            rewarmed = solve_allocation(build(), method="pgd", x0=allocation)
            warmstart_s = time.perf_counter() - started
            points.append(
                (num_jobs, capacity, allocation, rewarmed, build_s, solve_s, warmstart_s)
            )
        return points

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for num_jobs, capacity, allocation, rewarmed, build_s, solve_s, warmstart_s in points:
        rows.append(
            (
                f"{num_jobs} jobs/{int(capacity.cpus)} repl flat pgd",
                "cobyla wall: ~327s converged at 1000 jobs",
                f"tables={build_s:.1f}s solve={solve_s:.1f}s "
                f"warm+x0={warmstart_s:.1f}s "
                f"rows={allocation.nfev + allocation.post_nfev}",
            )
        )
    text = format_table(
        ["scale", "reference", "measured"],
        rows,
        title="== Table 8 extension: flat pgd planner (1000-5000 jobs) ==",
    )
    write_result("table8_scale_pgd", text)

    for num_jobs, capacity, allocation, rewarmed, build_s, solve_s, warmstart_s in points:
        replicas = allocation.replicas
        assert replicas.shape[0] == num_jobs
        assert np.all(replicas >= 1)
        assert np.all(replicas <= 64)
        assert float(np.sum(replicas)) <= capacity.cpus + 1e-9
        # Re-solving the unchanged problem from the previous allocation must
        # not lose quality (the integral warm start is a snap fallback).
        assert rewarmed.objective_value >= allocation.objective_value - 1e-9
        # Even the 5000-job flat solve stays inside a planning cycle
        # (generous bound for slow CI; ~23s measured on the baseline box).
        assert solve_s < 120.0
