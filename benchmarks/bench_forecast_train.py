"""Predictor training: the compiled step, stacking, threads, and one ``fit`` per job.

The training contract, pinned for the perf gate (``tools/check_perf.py``
vs ``results/BENCH_forecast.json``):

- every way of training a scenario's N-HiTS forecasters leaves every job
  **bit-identical** (weights and loss history): one ``fit`` per job and
  stacked models, each on the autodiff tape (the compiled kernel forced to
  ``None``) and on the kernel, and :meth:`NHiTSForecaster.fit_many` as
  shipped, its stacks on a thread pool;
- stacking pays on the tape: the stacks, trained one after another, beat
  one ``fit`` call per job by at least ``gated_speedup`` (``speedup``);
- the kernel pays: the stacks on the kernel beat the same stacks on the
  tape, both one after another, by at least ``gated_kernel_speedup``
  (``kernel_speedup``);
- the threads pay: ``fit_many`` as shipped beats its stacks trained one
  after another on the kernel by at least ``gated_thread_speedup``
  (``thread_speedup``), gated only where the baseline and the run both
  have at least two cores (``cpu_count``, the cores this process may run
  on).

The kernel's own stacked/per-job ratio (``kernel_stacking``) is recorded
but not gated: on the kernel the matrix products, which stacking does not
share, are most of a step.  Every side times the same jobs, interleaved in
one process, and takes the minimum of several runs, so the gated ratios
cancel out host drift; no absolute wall-clock is gated.
"""

import contextlib
import json
import time

from benchmarks.conftest import BENCH_PROFILE, RESULTS_DIR, write_result
from repro import api, native
from repro.experiments.report import format_table
from repro.forecast import nhits
from repro.forecast.nhits import NHiTSConfig, NHiTSForecaster

#: Jobs trained per run: two full stacks.
BENCH_JOBS = 8

#: Runs per side; each side reports its fastest.
BENCH_REPEATS = 3

#: Speedup the perf gate demands from stacked training on the tape.
GATED_SPEEDUP = 1.5

#: Speedup the perf gate demands from the kernel over the tape, both stacked
#: and trained one stack after another.  Five fresh runs on a 2-vCPU host
#: read 3.3-4.0x (2.2-2.7x while the loss head ran on the tape).
GATED_KERNEL_SPEEDUP = 2.5

#: Speedup the perf gate demands from ``fit_many``'s thread pool over its
#: stacks trained one after another, both on the kernel, on two or more
#: cores.  Five fresh runs on a 2-vCPU host read 1.54-1.83x for the bench's
#: two stacks; a pool that trained its stacks one at a time would read ~1x.
GATED_THREAD_SPEEDUP = 1.2


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


@contextlib.contextmanager
def _on_tape():
    """Train with the compiled kernel unavailable: every step on the tape."""
    loaded = nhits.kernel
    nhits.kernel = lambda: None
    try:
        yield
    finally:
        nhits.kernel = loaded


def _timed(train, configs, series, tape: bool) -> tuple[float, list[bytes]]:
    forecasters = [NHiTSForecaster(config) for config in configs]
    with _on_tape() if tape else contextlib.nullcontext():
        started = time.perf_counter()
        train(forecasters, series)
        wall = time.perf_counter() - started
    return wall, _fingerprint(forecasters)


def _per_job(forecasters, series) -> None:
    for forecaster, values in zip(forecasters, series):
        forecaster.fit(values)


def _stacks_in_turn(forecasters, series) -> None:
    """``fit_many``'s stacks, trained one after another on this thread."""
    for stack in nhits._stacks(forecasters, series):
        nhits._fit_stack(*stack)


#: The timed sides: (name, training call, on the tape).
_SIDES = (
    ("per_job_s", _per_job, True),
    ("stacked_s", _stacks_in_turn, True),
    ("kernel_per_job_s", _per_job, False),
    ("kernel_s", _stacks_in_turn, False),
    ("threaded_s", NHiTSForecaster.fit_many, False),
)


def run_forecast_bench() -> dict:
    configs, series = _training_jobs()
    nhits.kernel()  # load (and self-check) outside the timings
    best = {name: float("inf") for name, _, _ in _SIDES}
    identical = True
    # Interleave the sides so drift in host speed hits all of them alike.
    for _ in range(BENCH_REPEATS):
        prints = []
        for name, train, tape in _SIDES:
            wall, fingerprint = _timed(train, configs, series, tape)
            best[name] = min(best[name], wall)
            prints.append(fingerprint)
        identical = identical and all(p == prints[0] for p in prints)
    return {
        "jobs": BENCH_JOBS,
        "repeats": BENCH_REPEATS,
        "cpu_count": nhits._cores(),
        "kernel": native.kernels()["nhits"],
        **best,
        "speedup": best["per_job_s"] / best["stacked_s"],
        "kernel_speedup": best["stacked_s"] / best["kernel_s"],
        "kernel_stacking": best["kernel_per_job_s"] / best["kernel_s"],
        "thread_speedup": best["kernel_s"] / best["threaded_s"],
        "identical": identical,
        "gated_speedup": GATED_SPEEDUP,
        "gated_kernel_speedup": GATED_KERNEL_SPEEDUP,
        "gated_thread_speedup": GATED_THREAD_SPEEDUP,
    }


def test_forecast_train_bench(benchmark):
    data = benchmark.pedantic(run_forecast_bench, rounds=1, iterations=1)

    text = format_table(
        ["jobs", "path", "fit per job", "stacks in turn", "stacking", "fit_many", "identical"],
        [
            [
                data["jobs"],
                "tape",
                f"{data['per_job_s']:.2f}s",
                f"{data['stacked_s']:.2f}s",
                f"{data['speedup']:.2f}x",
                "-",
                data["identical"],
            ],
            [
                data["jobs"],
                f"kernel ({data['kernel']}, {data['kernel_speedup']:.2f}x the tape)",
                f"{data['kernel_per_job_s']:.2f}s",
                f"{data['kernel_s']:.2f}s",
                f"{data['kernel_stacking']:.2f}x",
                f"{data['threaded_s']:.2f}s ({data['thread_speedup']:.2f}x on "
                f"{data['cpu_count']} cores)",
                data["identical"],
            ],
        ],
        title=f"== N-HiTS training, min of {BENCH_REPEATS} runs ==",
    )
    write_result("forecast_train", text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_forecast.json").write_text(json.dumps(data, indent=2) + "\n")

    assert data["identical"]
    assert data["speedup"] >= GATED_SPEEDUP
    assert data["kernel_speedup"] >= GATED_KERNEL_SPEEDUP
    if data["cpu_count"] >= 2:
        assert data["thread_speedup"] >= GATED_THREAD_SPEEDUP
