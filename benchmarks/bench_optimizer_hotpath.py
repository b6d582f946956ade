"""Allocation hot path: solve time vs job count, cold vs warm table cache.

The planner's own latency is what keeps the control loop viable at scale
(paper §3.4 solves "in well under a second"; Fig. 7 hierarchical speedups).
This micro-benchmark pins the perf trajectory of the optimizer hot path:

- **cold**: every solve rebuilds utility tables (``UtilityTableCache``
  disabled) -- the pre-cache behaviour of one autoscaler cycle.
- **warm**: tables come from a primed shared cache, as in steady-state
  repeated cycles.  Cache hits are bit-for-bit identical to rebuilds, so
  solver results must not change.
- **warm+x0** (COBYLA row): additionally warm-starts from the previous
  allocation, the steady-state autoscaler configuration.
- **pgd** rows break the COBYLA wall: the batched first-order solver
  (:mod:`repro.core.batched_solver`) at 200 and 1000 jobs, each carrying a
  COBYLA quality differential (in-bench at 200, on scipy's own COBYLA
  with the compiled driver forced off, so that the speedup measures pgd
  against a fixed reference; the 1000-job point embeds a one-time
  converged reference,
  since a converged COBYLA solve there takes minutes) plus the
  quality/speedup constants the perf gate enforces.

Results are appended to ``results/optimizer_hotpath.txt`` and emitted as
machine-readable ``results/BENCH_optimizer.json`` so future PRs can regress
against them.
"""

import json
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.core import trstlp
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
from repro.experiments.report import format_table


def make_jobs(n, scenarios=140, seed=0):
    """Autoscaler-shaped jobs: ~(samples x horizon) predicted-rate scenarios."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n):
        base = rng.uniform(5.0, 40.0)
        rates = tuple(np.maximum(rng.normal(base, base * 0.2, size=scenarios), 0.0))
        jobs.append(
            OptimizationJob(name=f"j{i}", proc_time=0.18, slo=SLO(0.72), rates=rates)
        )
    return jobs


def _timed(fn, reps):
    started = time.perf_counter()
    result = None
    for _ in range(reps):
        result = fn()
    return (time.perf_counter() - started) / reps, result


#: One-time converged-COBYLA reference for the 1000-job pgd point, measured
#: on the baseline machine.  Same problem construction as
#: :func:`bench_pgd_flat`: ``make_jobs(1000, scenarios=35, seed=0)``,
#: capacity 3000 replicas, fairsum objective, ``max_replicas_per_job=64``,
#: warm table cache, ``maxiter=1200`` (>= num_vars + 2, so pyprima does not
#: clamp the budget).  COBYLA at this scale takes minutes per solve --
#: re-measuring it in-bench would dwarf every other point -- so the 1000-job
#: pgd point carries these constants and the perf gate checks pgd against
#: them.  Refresh by re-running a converged COBYLA solve on the baseline
#: machine if the problem construction above ever changes.
COBYLA_REF_1K = {
    "cobyla_ms": 326960.0,
    "cobyla_objective": -435.659166,
    "cobyla_nfev": 1200,
    "cobyla_post_nfev": 655655,
    "cobyla_maxiter": 1200,
}

#: Gate constants embedded in each pgd point (the perf gate reads them from
#: the emitted JSON, so bench and gate cannot drift apart): pgd's objective
#: must be within 1% of COBYLA's and its warm solve at least 10x faster.
PGD_QUALITY_TOL = 0.01
PGD_MIN_SPEEDUP = 10.0


def bench_pgd_flat(n, scenarios=35, cap=64, reps=2, cobyla_maxiter=None, cobyla_ref=None):
    """Flat pgd solve at planner scale, with a COBYLA quality differential.

    ``cobyla_maxiter`` runs a truncated-but-unclamped COBYLA on the same
    problem in-bench (only viable at a few hundred jobs); ``cobyla_ref``
    embeds a one-time converged measurement instead (the 1000-job wall).
    Exactly one of the two should be given.
    """
    jobs = make_jobs(n, scenarios=scenarios)
    capacity = ClusterCapacity.of_replicas(3 * n)
    objective = make_objective("fairsum")

    def build(cache):
        return AllocationProblem(
            jobs, capacity, objective, table_cache=cache, max_replicas_per_job=cap
        )

    def solve(cache, x0=None):
        return solve_allocation(build(cache), method="pgd", x0=x0)

    cold_s, cold = _timed(lambda: solve(UtilityTableCache(maxsize=0)), reps)
    shared = UtilityTableCache()
    solve(shared)  # prime
    warm_s, warm = _timed(lambda: solve(shared), reps)
    ws_s, ws = _timed(lambda: solve(shared, x0=warm), reps)
    assert np.array_equal(cold.replicas, warm.replicas)
    assert abs(cold.objective_value - warm.objective_value) <= 1e-9
    point = {
        "solver": "pgd",
        "jobs": n,
        "scenarios": scenarios,
        "max_replicas_per_job": cap,
        "cold_ms": cold_s * 1e3,
        "warm_ms": warm_s * 1e3,
        "warmstart_ms": ws_s * 1e3,
        "speedup": cold_s / warm_s,
        "cold_nfev": cold.nfev,
        "warmstart_nfev": ws.nfev,
        "post_nfev": warm.post_nfev,
        "objective": warm.objective_value,
        "gated_quality_tol": PGD_QUALITY_TOL,
        "gated_speedup": PGD_MIN_SPEEDUP,
    }
    if cobyla_maxiter is not None:
        # COBYLA on scipy's own minimize, the compiled driver forced off: a
        # fixed reference that the driver does not move, so the ratio
        # measures pgd.  The driver does not change COBYLA's bits.
        loaded = trstlp.kernel
        trstlp.kernel = lambda: None
        try:
            started = time.perf_counter()
            cob = solve_allocation(build(shared), method="cobyla", maxiter=cobyla_maxiter)
            point["cobyla_ms"] = (time.perf_counter() - started) * 1e3
        finally:
            trstlp.kernel = loaded
        point["cobyla_objective"] = cob.objective_value
        point["cobyla_maxiter"] = cobyla_maxiter
    elif cobyla_ref is not None:
        point.update(cobyla_ref)
        point["cobyla_reference"] = (
            "one-time converged measurement (see COBYLA_REF_1K); "
            "not re-measured in-bench"
        )
    return point


def bench_flat(n, scenarios, method, maxiter, reps=3):
    jobs = make_jobs(n, scenarios=scenarios)
    capacity = ClusterCapacity.of_replicas(3 * n)
    objective = make_objective("fairsum")

    def solve(cache, x0=None):
        problem = AllocationProblem(jobs, capacity, objective, table_cache=cache)
        return solve_allocation(problem, method=method, x0=x0, maxiter=maxiter)

    cold_s, cold = _timed(lambda: solve(UtilityTableCache(maxsize=0)), reps)
    shared = UtilityTableCache()
    solve(shared)  # prime
    warm_s, warm = _timed(lambda: solve(shared), reps)
    ws_s, ws = _timed(lambda: solve(shared, x0=warm), reps)
    assert np.array_equal(cold.replicas, warm.replicas)
    assert abs(cold.objective_value - warm.objective_value) <= 1e-9
    return {
        "solver": method,
        "jobs": n,
        "scenarios": scenarios,
        "cold_ms": cold_s * 1e3,
        "warm_ms": warm_s * 1e3,
        "warmstart_ms": ws_s * 1e3,
        "speedup": cold_s / warm_s,
        "cold_nfev": cold.nfev,
        "warmstart_nfev": ws.nfev,
    }


def bench_hierarchical(n, scenarios, maxiter=100, reps=2, seed=7):
    jobs = make_jobs(n, scenarios=scenarios)
    capacity = ClusterCapacity.of_replicas(int(3.2 * n))
    objective = make_objective("fairsum")

    def solve(cache):
        return solve_hierarchical(
            jobs, capacity, objective, groups=10, maxiter=maxiter, seed=seed,
            table_cache=cache,
        )

    cold_s, cold = _timed(lambda: solve(UtilityTableCache(maxsize=0)), reps)
    shared = UtilityTableCache()
    solve(shared)  # prime
    warm_s, warm = _timed(lambda: solve(shared), reps)
    assert np.array_equal(cold.allocation.replicas, warm.allocation.replicas)
    assert abs(cold.allocation.objective_value - warm.allocation.objective_value) <= 1e-9
    return {
        "solver": "hier-cobyla-G10",
        "jobs": n,
        "scenarios": scenarios,
        "cold_ms": cold_s * 1e3,
        "warm_ms": warm_s * 1e3,
        "speedup": cold_s / warm_s,
    }


def run_hotpath():
    points = [
        bench_flat(10, 140, "cobyla", maxiter=1000),
        bench_flat(50, 140, "cobyla", maxiter=100),
        bench_flat(20, 560, "greedy", maxiter=0),
        bench_flat(50, 280, "greedy", maxiter=0),
        bench_hierarchical(100, 140),
        bench_hierarchical(200, 140),
        # The COBYLA wall: at 200 jobs a truncated (maxiter=300, unclamped)
        # COBYLA already takes seconds; at 1000 jobs a converged solve takes
        # minutes (embedded reference).  pgd solves both flat.
        bench_pgd_flat(200, cobyla_maxiter=300),
        bench_pgd_flat(1000, cobyla_ref=COBYLA_REF_1K),
    ]
    return points


def test_optimizer_hotpath(benchmark):
    points = benchmark.pedantic(run_hotpath, rounds=1, iterations=1)

    rows = []
    for p in points:
        extra = (
            f" warm+x0={p['warmstart_ms']:.0f}ms nfev {p['cold_nfev']}->{p['warmstart_nfev']}"
            if "warmstart_ms" in p
            else ""
        )
        invariant = "cache hit == rebuild, bit-for-bit"
        if "cobyla_objective" in p:
            invariant = (
                f"cobyla={p['cobyla_ms']/1e3:.1f}s obj={p['cobyla_objective']:.2f} "
                f"vs pgd obj={p['objective']:.2f}"
            )
        rows.append(
            (
                f"{p['solver']}/{p['jobs']} jobs",
                invariant,
                f"cold={p['cold_ms']:.0f}ms warm={p['warm_ms']:.0f}ms "
                f"({p['speedup']:.1f}x){extra}",
            )
        )
    text = format_table(
        ["solver/scale", "invariant", "measured"],
        rows,
        title="== Optimizer hot path: cold vs warm utility-table cache ==",
    )
    write_result("optimizer_hotpath", text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_optimizer.json").write_text(
        json.dumps({"points": points}, indent=2) + "\n"
    )

    # Where table construction is the dominant cycle cost (batched-eval
    # greedy; hierarchical solves at >= 100 jobs), the warm cache must be
    # at least 5x faster -- with solver results unchanged (asserted
    # bit-for-bit inside the bench helpers above).
    greedy = [p for p in points if p["solver"] == "greedy"]
    hier = [p for p in points if p["solver"].startswith("hier")]
    assert max(p["speedup"] for p in greedy) >= 5.0
    assert max(p["speedup"] for p in hier) >= 5.0
    # Warm starts never cost extra COBYLA iterations.
    for p in points:
        if "warmstart_nfev" in p and p["solver"] == "cobyla":
            assert p["warmstart_nfev"] <= p["cold_nfev"]
    # The ISSUE's pgd contract on every emitted point: objective within
    # gated_quality_tol of COBYLA's (relative to max(1, |cobyla|)) and the
    # warm solve at least gated_speedup faster than the COBYLA differential
    # (in-bench at 200 jobs, the embedded converged reference at 1000).
    pgd_points = [p for p in points if p["solver"] == "pgd"]
    assert pgd_points, "pgd points missing from the hot-path bench"
    for p in pgd_points:
        tol = p["gated_quality_tol"] * max(1.0, abs(p["cobyla_objective"]))
        assert p["objective"] >= p["cobyla_objective"] - tol
        assert p["cobyla_ms"] / p["warm_ms"] >= p["gated_speedup"]
