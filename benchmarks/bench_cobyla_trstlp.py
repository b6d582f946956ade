"""COBYLA's trust-region step: the compiled kernel against pyprima's ``trstlp``.

The kernel contract, pinned for the perf gate (``tools/check_perf.py`` vs
``results/BENCH_trstlp.json``):

- :func:`repro.core.trstlp.kernel` returns **byte-identical** steps to
  scipy's ``scipy._lib.pyprima.cobyla.trustregion.trstlp`` on every input
  a Faro solve hands it, and
- it runs those inputs at least the gated factor faster, at each e2e
  workload's shape: ``headline`` solves 10 jobs with ``fairsum`` (10
  variables, 22 constraints) and ``serve-stream`` 10 jobs with
  ``penaltyfairsum`` (20 variables, 42 constraints).

The inputs are recorded, not made up: one COBYLA solve per shape runs with
pyprima's ``cobylb.trstlp`` wrapped by a recorder, and every
``(A, b, delta, g)`` it passes is kept.  Both sides then run all of them,
in one process, interleaved, and each takes the minimum of ``REPEATS``
passes, so the gated ratio cancels out host drift; no absolute wall-clock
is gated.  A kernel that fell back to pyprima reads about 1x and fails.
"""

import json
import os
import time

from scipy._lib.pyprima.cobyla import cobylb, trustregion

from benchmarks.bench_optimizer_hotpath import make_jobs
from benchmarks.conftest import RESULTS_DIR, write_result
from repro import native
from repro.core import trstlp
from repro.core.objectives import make_objective
from repro.core.optimizer import AllocationProblem, ClusterCapacity, solve_allocation
from repro.experiments.report import format_table

#: ``(workload, objective, jobs, replica budget)`` per gated shape.
SHAPES = (
    ("headline", "fairsum", 10, 32),
    ("serve-stream", "penaltyfairsum", 10, 32),
)

#: Timed passes over the recorded inputs per side; each side reports its fastest.
REPEATS = 3

#: Speedup the perf gate demands from the kernel at every shape.
GATED_SPEEDUP = 5.0


def record_inputs(objective: str, jobs: int, replicas: int) -> list[tuple]:
    """Every ``(A, b, delta, g)`` one Faro-shaped COBYLA solve passes to ``trstlp``."""
    problem = AllocationProblem(
        make_jobs(jobs), ClusterCapacity.of_replicas(replicas), make_objective(objective)
    )
    calls = []

    def recorder(A, b, delta, g):
        calls.append((A.copy(), b.copy(), delta, g.copy()))
        return trustregion.trstlp(A, b, delta, g)

    # solve_allocation installs the kernel only over pyprima's own function,
    # so the recorder sees, and answers, every call.
    cobylb.trstlp = recorder
    try:
        solve_allocation(problem, method="cobyla")
    finally:
        cobylb.trstlp = trustregion.trstlp
    return calls


def _pass_seconds(step, calls) -> float:
    started = time.perf_counter()
    for A, b, delta, g in calls:
        step(A, b, delta, g)
    return time.perf_counter() - started


def run_trstlp_bench() -> dict:
    run = trstlp.kernel()
    identical = run is not None
    shapes = []
    for workload, objective, jobs, replicas in SHAPES:
        calls = record_inputs(objective, jobs, replicas)
        compiled = run if run is not None else trustregion.trstlp
        identical = identical and all(
            compiled(*call).tobytes() == trustregion.trstlp(*call).tobytes()
            for call in calls
        )
        pyprima_s = compiled_s = float("inf")
        # Interleave the sides so drift in host speed hits both alike.
        for _ in range(REPEATS):
            pyprima_s = min(pyprima_s, _pass_seconds(trustregion.trstlp, calls))
            compiled_s = min(compiled_s, _pass_seconds(compiled, calls))
        A = calls[0][0]
        shapes.append({
            "workload": workload,
            "objective": objective,
            "shape": f"{A.shape[0]}x{A.shape[1]}",
            "calls": len(calls),
            "pyprima_ms": pyprima_s / len(calls) * 1e3,
            "compiled_ms": compiled_s / len(calls) * 1e3,
            "speedup": pyprima_s / compiled_s,
        })
    return {
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "kernel": native.kernels()["trstlp"],
        "identical": identical,
        "gated_speedup": GATED_SPEEDUP,
        "shapes": shapes,
    }


def test_cobyla_trstlp_bench(benchmark):
    data = benchmark.pedantic(run_trstlp_bench, rounds=1, iterations=1)

    text = format_table(
        ["workload", "shape", "calls", "pyprima", "compiled", "speedup", "identical"],
        [
            [
                shape["workload"],
                shape["shape"],
                shape["calls"],
                f"{shape['pyprima_ms']:.3f}ms",
                f"{shape['compiled_ms']:.3f}ms",
                f"{shape['speedup']:.1f}x",
                data["identical"],
            ]
            for shape in data["shapes"]
        ],
        title=f"== COBYLA trust-region step per call, min of {REPEATS} passes ==",
    )
    write_result("cobyla_trstlp", text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_trstlp.json").write_text(json.dumps(data, indent=2) + "\n")

    assert data["identical"]
    assert all(shape["speedup"] >= GATED_SPEEDUP for shape in data["shapes"])
