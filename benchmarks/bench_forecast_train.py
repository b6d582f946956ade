"""Predictor training: stacked ``fit_many`` against one ``fit`` per job.

The stacked-training contract, pinned for the perf gate
(``tools/check_perf.py`` vs ``results/BENCH_forecast.json``):

- training a scenario's N-HiTS forecasters as stacked models
  (:meth:`NHiTSForecaster.fit_many`) leaves every job **bit-identical**
  to fitting it alone (weights and loss history), and
- it pays: one ``fit_many`` call over the jobs beats one ``fit`` call per
  job by at least the gated factor.

Both sides time the same jobs in the same process and take the minimum of
several runs, so the gated ratio cancels out host drift; no absolute
wall-clock is gated.
"""

import json
import os
import time

from benchmarks.conftest import BENCH_PROFILE, RESULTS_DIR, write_result
from repro import api
from repro.experiments.report import format_table
from repro.forecast.nhits import NHiTSConfig, NHiTSForecaster

#: Jobs trained per run: two full stacks.
BENCH_JOBS = 8

#: Runs per side; each side reports its fastest.
BENCH_REPEATS = 3

#: Speedup the perf gate demands from stacked training.
GATED_SPEEDUP = 1.5


def _training_jobs() -> tuple[list[NHiTSConfig], list]:
    """The large-scale scenario's configs and traces, as ``train_predictors`` sets them."""
    scenario = api.ScenarioSpec(
        kind="large-scale",
        params={"num_jobs": BENCH_JOBS, "total_replicas": 4 * BENCH_JOBS,
                "duration_minutes": 30},
    ).build()
    configs = [BENCH_PROFILE.config(index) for index in range(BENCH_JOBS)]
    series = [scenario.train_traces[name] for name in scenario.job_names]
    return configs, series


def _fingerprint(forecasters: list[NHiTSForecaster]) -> list[bytes]:
    return [
        b"".join(p.data.tobytes() for p in f.network.parameters())
        + repr(f.loss_history).encode()
        for f in forecasters
    ]


def _timed(train, configs, series) -> tuple[float, list[bytes]]:
    forecasters = [NHiTSForecaster(config) for config in configs]
    started = time.perf_counter()
    train(forecasters, series)
    return time.perf_counter() - started, _fingerprint(forecasters)


def _per_job(forecasters, series) -> None:
    for forecaster, values in zip(forecasters, series):
        forecaster.fit(values)


def run_forecast_bench() -> dict:
    configs, series = _training_jobs()
    per_job_s = stacked_s = float("inf")
    identical = True
    # Interleave the sides so drift in host speed hits both alike.
    for _ in range(BENCH_REPEATS):
        wall, per_job = _timed(_per_job, configs, series)
        per_job_s = min(per_job_s, wall)
        wall, stacked = _timed(NHiTSForecaster.fit_many, configs, series)
        stacked_s = min(stacked_s, wall)
        identical = identical and per_job == stacked
    return {
        "jobs": BENCH_JOBS,
        "repeats": BENCH_REPEATS,
        "cpu_count": os.cpu_count(),
        "per_job_s": per_job_s,
        "stacked_s": stacked_s,
        "speedup": per_job_s / stacked_s,
        "identical": identical,
        "gated_speedup": GATED_SPEEDUP,
    }


def test_forecast_train_bench(benchmark):
    data = benchmark.pedantic(run_forecast_bench, rounds=1, iterations=1)

    text = format_table(
        ["jobs", "fit per job", "fit_many", "speedup", "identical"],
        [
            [
                data["jobs"],
                f"{data['per_job_s']:.2f}s",
                f"{data['stacked_s']:.2f}s",
                f"{data['speedup']:.2f}x",
                data["identical"],
            ]
        ],
        title=f"== N-HiTS training, min of {BENCH_REPEATS} runs ==",
    )
    write_result("forecast_train", text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_forecast.json").write_text(json.dumps(data, indent=2) + "\n")

    assert data["identical"]
    assert data["speedup"] >= GATED_SPEEDUP
