"""COBYLA compiled: the production solve against scipy's, and its step's bytes.

The kernel contract, pinned for the perf gate (``tools/check_perf.py`` vs
``results/BENCH_trstlp.json``), at each e2e workload's shape: ``headline``
solves 10 jobs with ``fairsum`` (10 variables, 22 constraints) and
``serve-stream`` 10 jobs with ``penaltyfairsum`` (20 variables, 42
constraints).

- **The whole solve.**  The production solve -- the compiled driver
  (``kernel().minimize``) answered by the compiled objective
  (:mod:`repro.core.objective`), as ``solve_allocation`` runs it -- returns
  the same ``x``, ``fun`` and number of ``fun`` calls as
  ``scipy.optimize.minimize(method="COBYLA")`` on Faro's numpy objective,
  and at **every point** scipy evaluated the compiled objective's ``f``
  and slacks are the numpy ones' bytes.  It runs at least
  ``GATED_SOLVE_SPEEDUP`` times faster.  Both sides run in one process,
  interleaved, and each takes the minimum of ``REPEATS`` runs, so the
  gated ratio cancels out host drift; no absolute wall-clock is gated.  A
  driver that fell back to scipy reads about 1x and fails; an objective
  that fell back to numpy fails the identity (it has no compiled points
  to compare) and reads well under the gate.
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
from repro.core import objective, optimizer, trstlp
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
#: the lowest of five fresh runs of the production solve on the 2-vCPU
#: baseline host (57.0x at ``serve-stream``'s shape; the others 57.5-57.7x
#: there and 104.3-106.4x at ``headline``'s).  scipy's side runs pyprima's
#: own Python and Faro's numpy objective throughout.
GATED_SOLVE_SPEEDUP = 28.5

#: The COBYLA solve of ``solve_allocation``: its default ``maxiter`` and the
#: paper's ``rhobeg``.
MAXITER, RHOBEG = 1000, 2.0


def _problem(name: str, jobs: int, replicas: int) -> AllocationProblem:
    return AllocationProblem(
        make_jobs(jobs), ClusterCapacity.of_replicas(replicas), make_objective(name)
    )


def record_inputs(name: str, jobs: int, replicas: int) -> list[tuple]:
    """Every ``(A, b, delta, g)`` one Faro-shaped COBYLA solve passes to ``trstlp``."""
    problem = _problem(name, jobs, replicas)
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


def _solvers(problem: AllocationProblem):
    """``(production, scipy, points)``: each solver solves ``problem`` from
    the default start and returns ``(x bytes, fun, nfev)``.  The production
    solve is ``solve_allocation``'s COBYLA, on whichever kernels loaded;
    scipy's runs on Faro's numpy objective and leaves every point it
    evaluated ``fun`` at in ``points``."""
    x0 = optimizer._default_start(problem)
    points = []

    def production():
        z, value, nfev = optimizer._solve_scipy(problem, "cobyla", x0, MAXITER)
        return np.asarray(z, dtype=float).tobytes(), -value, nfev

    def reference():
        fun, counter = optimizer._negative_objective(problem)
        slacks, _ = optimizer._constraint_functions(problem)
        points.clear()

        def recording(z):
            points.append(z.copy())
            return fun(z)

        result = scipy.optimize.minimize(
            recording, x0, method="COBYLA", constraints=[{"type": "ineq", "fun": slacks}],
            options={"maxiter": MAXITER, "rhobeg": RHOBEG},
        )
        return np.asarray(result.x, dtype=float).tobytes(), float(result.fun), counter["nfev"]

    return production, reference, points


def _seconds(solve) -> float:
    started = time.perf_counter()
    solve()
    return time.perf_counter() - started


def run_trstlp_bench() -> dict:
    compiled = trstlp.kernel()
    identical = solve_identical = compiled is not None
    solves = []
    for workload, name, jobs, replicas in SHAPES:
        calls = record_inputs(name, jobs, replicas)
        identical = identical and all(
            compiled.trstlp(*call).tobytes() == trustregion.trstlp(*call).tobytes()
            for call in calls
        )

        problem = _problem(name, jobs, replicas)
        production, reference, points = _solvers(problem)
        ours, theirs = production(), reference()
        compiled_objective = objective.kernel()
        solve_identical = (
            solve_identical
            and ours == theirs
            and compiled_objective is not None
            and objective._same_answers(compiled_objective, problem, points)
        )
        scipy_s = compiled_s = float("inf")
        # Interleave the sides so drift in host speed hits both alike.
        for _ in range(REPEATS):
            scipy_s = min(scipy_s, _seconds(reference))
            compiled_s = min(compiled_s, _seconds(production))
        solves.append({
            "workload": workload,
            "objective": name,
            "variables": calls[0][0].shape[0],
            "constraints": calls[0][0].shape[1],
            "steps": len(calls),
            "nfev": theirs[2],
            "scipy_ms": scipy_s * 1e3,
            "compiled_ms": compiled_s * 1e3,
            "speedup": scipy_s / compiled_s,
        })
    kernels = native.kernels()
    return {
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "kernel": kernels["trstlp"],
        "objective_kernel": kernels["objective"],
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
        title=f"== COBYLA production solve (driver + compiled objective) against scipy's, min of {REPEATS} runs ==",
    )
    write_result("cobyla_trstlp", solves)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_trstlp.json").write_text(json.dumps(data, indent=2) + "\n")

    assert data["identical"] and data["solve_identical"]
    assert all(solve["speedup"] >= GATED_SOLVE_SPEEDUP for solve in data["solves"])
