"""Scenario construction: build + trace-generation wall-clock at scale.

The composition redesign's performance contract, pinned for the perf gate
(``tools/check_perf.py`` vs ``results/BENCH_scenarios.json``):

- building the paper's scenario kinds must stay cheap as the job count
  grows (trace generation dominates; it is linear in jobs x days), and
- the fully-composed (``lower()``-ed) path may not cost materially more
  than the factory sugar it replaces: a registry of sources/transforms
  behind typed specs is an API, not a tax.

Points are measured at 10/100/500 jobs over short 2-day traces so the
bench finishes in seconds while still scaling the part that matters (the
number of generator/transform invocations).  Each point is the fastest of
``BENCH_REPEATS`` builds, the factory and composed builds of a job count
taking turns, so the gated ratio compares two minimums taken under the
same host drift rather than two single samples.  Absolute numbers are
machine-dependent; the gate compares against the checked-in baseline with
a generous tolerance.
"""

import json
import time

from benchmarks.conftest import RESULTS_DIR, write_result
from repro import api
from repro.experiments.report import format_table

#: Job counts the gate tracks.
BENCH_JOB_COUNTS = (10, 100, 500)

#: Short traces keep the bench fast; scaling happens in the job count.
BENCH_DAYS = 2

#: Builds per point; each point reports its fastest.
BENCH_REPEATS = 5

#: Largest composed/factory build-cost ratio the perf gate tolerates.
GATED_COMPOSED_OVERHEAD = 1.5


def _scenario_spec(num_jobs: int) -> api.ScenarioSpec:
    return api.ScenarioSpec(
        kind="large-scale",
        params={
            "num_jobs": num_jobs,
            "total_replicas": 4 * num_jobs,
            "duration_minutes": 30,
            "days": BENCH_DAYS,
        },
    )


def _time_build(spec: api.ScenarioSpec) -> float:
    started = time.perf_counter()
    scenario = spec.build()
    elapsed = time.perf_counter() - started
    assert len(scenario.jobs) >= 1
    return elapsed


def run_scenario_bench() -> dict:
    points = []
    for num_jobs in BENCH_JOB_COUNTS:
        spec = _scenario_spec(num_jobs)
        lowered = spec.lower()
        factory_s = composed_s = float("inf")
        for _ in range(BENCH_REPEATS):
            factory_s = min(factory_s, _time_build(spec))
            composed_s = min(composed_s, _time_build(lowered))
        points.append({"name": f"factory-{num_jobs}", "jobs": num_jobs,
                       "wall_s": factory_s})
        points.append({"name": f"composed-{num_jobs}", "jobs": num_jobs,
                       "wall_s": composed_s})
    by_name = {p["name"]: p["wall_s"] for p in points}
    return {
        "days": BENCH_DAYS,
        "job_counts": list(BENCH_JOB_COUNTS),
        "composed_overhead_at_500": (
            by_name["composed-500"] / by_name["factory-500"]
        ),
        "gated_composed_overhead": GATED_COMPOSED_OVERHEAD,
        "points": points,
    }


def test_scenario_build_bench(benchmark):
    data = benchmark.pedantic(run_scenario_bench, rounds=1, iterations=1)

    by_name = {p["name"]: p["wall_s"] for p in data["points"]}
    rows = []
    for num_jobs in BENCH_JOB_COUNTS:
        factory_s = by_name[f"factory-{num_jobs}"]
        composed_s = by_name[f"composed-{num_jobs}"]
        rows.append(
            [
                f"{num_jobs} jobs",
                f"{factory_s * 1000:.0f}ms",
                f"{composed_s * 1000:.0f}ms",
                f"{composed_s / factory_s:.2f}x",
            ]
        )
    text = format_table(
        ["grid", "factory build", "composed build", "composed/factory"],
        rows,
        title=f"== Scenario build + trace generation ({BENCH_DAYS}-day traces) ==",
    )
    write_result("scenario_build", text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_scenarios.json").write_text(json.dumps(data, indent=2) + "\n")

    # The composed path must stay in the same cost class as the factory
    # sugar (generous bound: both are dominated by identical trace
    # generation; the spec layer adds parsing/validation only).
    assert data["composed_overhead_at_500"] < GATED_COMPOSED_OVERHEAD
