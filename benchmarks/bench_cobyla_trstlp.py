"""COBYLA compiled: the whole solve against scipy's, and its step's bytes.

The kernel contract, pinned for the perf gate (``tools/check_perf.py`` vs
``results/BENCH_trstlp.json``), at each e2e workload's shape: ``headline``
solves 10 jobs with ``fairsum`` (10 variables, 22 constraints) and
``serve-stream`` 10 jobs with ``penaltyfairsum`` (20 variables, 42
constraints).

- **The whole solve.**  ``kernel().minimize`` evaluates **the same
  points** as ``scipy.optimize.minimize(method="COBYLA")`` in the same
  order and returns the same ``x``, ``fun`` and number of ``fun`` calls,
  and the solve, Faro's objective included, runs at least
  ``GATED_SOLVE_SPEEDUP`` times faster.  Both sides run in one process,
  interleaved, and each takes the minimum of ``REPEATS`` runs, so the
  gated ratio cancels out host drift; no absolute wall-clock is gated.  A
  kernel that fell back to scipy reads about 1x and fails.
- **The step.**  ``kernel().trstlp`` returns **byte-identical** steps to
  scipy's ``scipy._lib.pyprima.cobyla.trustregion.trstlp`` on every input
  a Faro solve hands it.  The inputs are recorded, not made up: one solve
  per shape runs on scipy's COBYLA (the driver forced off, as it would
  otherwise never call pyprima's ``trstlp``) with pyprima's
  ``cobylb.trstlp`` wrapped by a recorder, and every ``(A, b, delta, g)``
  it passes is kept.  The step's speed is not gated apart: the driver
  takes every step, so the whole-solve ratio falls with it.
"""

import json
import os
import time

import numpy as np
import scipy.optimize
from scipy._lib.pyprima.cobyla import cobylb, trustregion

from benchmarks.bench_optimizer_hotpath import make_jobs
from benchmarks.conftest import RESULTS_DIR, write_result
from repro import native
from repro.core import optimizer, trstlp
from repro.core.objectives import make_objective
from repro.core.optimizer import AllocationProblem, ClusterCapacity, solve_allocation
from repro.experiments.report import format_table

#: ``(workload, objective, jobs, replica budget)`` per gated shape.
SHAPES = (
    ("headline", "fairsum", 10, 32),
    ("serve-stream", "penaltyfairsum", 10, 32),
)

#: Timed runs per side; each side reports its fastest.
REPEATS = 3

#: Speedup the perf gate demands from the whole solve at every shape: half
#: the lowest of five fresh runs on the 2-vCPU baseline host (20.4x; the
#: others 20.7-30.9x).  scipy's side runs pyprima's own Python throughout.
GATED_SOLVE_SPEEDUP = 10.0

#: The COBYLA solve of ``solve_allocation``: its default ``maxiter`` and the
#: paper's ``rhobeg``.
MAXITER, RHOBEG = 1000, 2.0


def _problem(objective: str, jobs: int, replicas: int) -> AllocationProblem:
    return AllocationProblem(
        make_jobs(jobs), ClusterCapacity.of_replicas(replicas), make_objective(objective)
    )


def record_inputs(objective: str, jobs: int, replicas: int) -> list[tuple]:
    """Every ``(A, b, delta, g)`` one Faro-shaped COBYLA solve passes to ``trstlp``."""
    problem = _problem(objective, jobs, replicas)
    calls = []

    def recorder(A, b, delta, g):
        calls.append((A.copy(), b.copy(), delta, g.copy()))
        return trustregion.trstlp(A, b, delta, g)

    # With the driver off, scipy's COBYLA runs and calls the recorder.
    loaded = trstlp.kernel
    trstlp.kernel = lambda: None
    cobylb.trstlp = recorder
    try:
        solve_allocation(problem, method="cobyla")
    finally:
        cobylb.trstlp = trustregion.trstlp
        trstlp.kernel = loaded
    return calls


def _solvers(problem: AllocationProblem, compiled):
    """``(driver, scipy)``: each solves ``problem`` from the default start
    with the given objective and slacks and returns ``(x, fun)``.  Without
    a kernel the driver is scipy's too."""
    x0 = optimizer._default_start(problem)
    _, size = optimizer._constraint_functions(problem)

    def reference(fun, slacks):
        result = scipy.optimize.minimize(
            fun, x0, method="COBYLA", constraints=[{"type": "ineq", "fun": slacks}],
            options={"maxiter": MAXITER, "rhobeg": RHOBEG},
        )
        return result.x, result.fun

    def driver(fun, slacks):
        if compiled is None:
            return reference(fun, slacks)
        return compiled.minimize(fun, slacks, x0, size, rhobeg=RHOBEG, maxiter=MAXITER)

    return driver, reference


def _recorded(solve, problem: AllocationProblem) -> tuple:
    """Every call ``solve`` makes (kind and point bytes), ``x``'s bytes and ``fun``."""
    fun, _ = optimizer._negative_objective(problem)
    slacks, _ = optimizer._constraint_functions(problem)
    calls = []

    def recording_fun(z):
        calls.append(("f", z.tobytes()))
        return fun(z)

    def recording_slacks(z):
        calls.append(("c", z.tobytes()))
        return slacks(z)

    x, f = solve(recording_fun, recording_slacks)
    return calls, np.asarray(x, dtype=float).tobytes(), float(f)


def _solve_seconds(solve, problem: AllocationProblem) -> float:
    fun, _ = optimizer._negative_objective(problem)
    slacks, _ = optimizer._constraint_functions(problem)
    started = time.perf_counter()
    solve(fun, slacks)
    return time.perf_counter() - started


def run_trstlp_bench() -> dict:
    compiled = trstlp.kernel()
    identical = solve_identical = compiled is not None
    solves = []
    for workload, objective, jobs, replicas in SHAPES:
        calls = record_inputs(objective, jobs, replicas)
        identical = identical and all(
            compiled.trstlp(*call).tobytes() == trustregion.trstlp(*call).tobytes()
            for call in calls
        )

        problem = _problem(objective, jobs, replicas)
        driver, reference = _solvers(problem, compiled)
        ours, theirs = _recorded(driver, problem), _recorded(reference, problem)
        solve_identical = solve_identical and ours == theirs
        scipy_s = driver_s = float("inf")
        # Interleave the sides so drift in host speed hits both alike.
        for _ in range(REPEATS):
            scipy_s = min(scipy_s, _solve_seconds(reference, problem))
            driver_s = min(driver_s, _solve_seconds(driver, problem))
        solves.append({
            "workload": workload,
            "objective": objective,
            "variables": calls[0][0].shape[0],
            "constraints": calls[0][0].shape[1],
            "steps": len(calls),
            "nfev": sum(kind == "f" for kind, _ in theirs[0]),
            "scipy_ms": scipy_s * 1e3,
            "compiled_ms": driver_s * 1e3,
            "speedup": scipy_s / driver_s,
        })
    return {
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "kernel": native.kernels()["trstlp"],
        "identical": identical,
        "solve_identical": solve_identical,
        "gated_solve_speedup": GATED_SOLVE_SPEEDUP,
        "solves": solves,
    }


def test_cobyla_trstlp_bench(benchmark):
    data = benchmark.pedantic(run_trstlp_bench, rounds=1, iterations=1)

    solves = format_table(
        ["workload", "shape", "steps", "nfev", "scipy", "compiled", "speedup",
         "same solve", "same steps"],
        [
            [
                solve["workload"],
                f"{solve['variables']}x{solve['constraints']}",
                solve["steps"],
                solve["nfev"],
                f"{solve['scipy_ms']:.1f}ms",
                f"{solve['compiled_ms']:.1f}ms",
                f"{solve['speedup']:.1f}x",
                data["solve_identical"],
                data["identical"],
            ]
            for solve in data["solves"]
        ],
        title=f"== COBYLA whole solve, Faro's objective included, min of {REPEATS} runs ==",
    )
    write_result("cobyla_trstlp", solves)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_trstlp.json").write_text(json.dumps(data, indent=2) + "\n")

    assert data["identical"] and data["solve_identical"]
    assert all(solve["speedup"] >= GATED_SOLVE_SPEEDUP for solve in data["solves"])
