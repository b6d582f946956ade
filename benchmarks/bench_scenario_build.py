"""Scenario construction: build + trace-generation wall-clock at scale.

The scenario layer's performance contract, pinned for the perf gate
(``tools/check_perf.py`` vs ``results/BENCH_scenarios.json``): building the
paper's scenario kinds must stay cheap as the job count grows (trace
generation dominates; it is linear in jobs x days).  Every kind builds
through the one ``custom`` builder, so one ``large-scale`` build per job
count covers the whole layer: spec lowering, parsing and validation, the
trace pipelines, and the window cuts.

Points are measured at 10/100/500 jobs over short 2-day traces so the
bench finishes in seconds while still scaling the part that matters (the
number of generator/transform invocations).  Each point is the fastest of
as many builds as fit in one second, and of at least five
(:func:`benchmarks.conftest.best_over_span`).  Absolute numbers are
machine-dependent; the gate compares against the checked-in baseline with
a generous tolerance.
"""

import json
import time

from benchmarks.conftest import RESULTS_DIR, best_over_span, write_result
from repro import api
from repro.experiments.report import format_table

#: Job counts the gate tracks.
BENCH_JOB_COUNTS = (10, 100, 500)

#: Short traces keep the bench fast; scaling happens in the job count.
BENCH_DAYS = 2


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
        wall_s = best_over_span(lambda: _time_build(spec))
        points.append({"name": f"build-{num_jobs}", "jobs": num_jobs, "wall_s": wall_s})
    return {
        "days": BENCH_DAYS,
        "job_counts": list(BENCH_JOB_COUNTS),
        "points": points,
    }


def test_scenario_build_bench(benchmark):
    data = benchmark.pedantic(run_scenario_bench, rounds=1, iterations=1)

    rows = [
        [f"{point['jobs']} jobs", f"{point['wall_s'] * 1000:.0f}ms"]
        for point in data["points"]
    ]
    text = format_table(
        ["grid", "build"],
        rows,
        title=f"== Scenario build + trace generation ({BENCH_DAYS}-day traces) ==",
    )
    write_result("scenario_build", text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_scenarios.json").write_text(json.dumps(data, indent=2) + "\n")
