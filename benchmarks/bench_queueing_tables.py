"""Latency tables: the compiled table kernel against the numpy loops.

The table-kernel contract, pinned for the perf gate
(``tools/check_perf.py`` vs ``results/BENCH_tables.json``):

- :func:`~repro.queueing.vectorized.mdc_latency_table` and
  :func:`~repro.queueing.vectorized.erlang_c_table` on the compiled kernel
  (``queueing/erlang.c``) are **byte-identical** to the numpy loops, and
- relaxed tables build at least the gated factor faster than the numpy
  loops at each e2e workload's shape (scenarios x ``max_servers``):
  ``planner-100`` 140 x 320, ``headline`` 140 x 36 and ``serve-stream``
  1820 x 32 (140 rate scenarios x 13 drop rates).

Rates are forecast-like: offered loads of 0.4 to 3.5 busy replicas, the
middle 90% of what the three workloads' forecasts span, plus one idle
scenario.  Both sides run in one process, interleaved, and each takes the
minimum of several samples of at least ``SAMPLE_SECONDS``, so the gated
ratio cancels out host drift; no absolute wall-clock is gated.  A kernel
that fell back to the numpy loops reads about 1x and fails.
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR, write_result
from repro import native
from repro.core.optimizer import DEFAULT_DROP_GRID
from repro.experiments.report import format_table
from repro.queueing import vectorized
from repro.queueing.vectorized import erlang_c_at_rho, erlang_c_table, mdc_latency_table

#: ``(workload, rate scenarios, drop rates, max_servers)`` per gated shape.
SHAPES = (
    ("planner-100", 140, 1, 320),
    ("headline", 140, 1, 36),
    ("serve-stream", 140, len(DEFAULT_DROP_GRID), 32),
)

#: Timed samples per side; each side reports its fastest.
SAMPLES = 5

#: Minimum length of one sample: short calls repeat until it is reached.
SAMPLE_SECONDS = 0.05

#: Speedup the perf gate demands from the kernel at every shape.
GATED_SPEEDUP = 3.0

QUANTILE, PROC_TIME, RHO_MAX = 0.99, 0.18, 0.95


def _scenario_rates(scenarios: int, drops: int) -> np.ndarray:
    """Rates as ``build_utility_table`` lays them out: every (rate, drop) pair."""
    rng = np.random.default_rng(0)
    rates = rng.uniform(0.4, 3.5, scenarios) / PROC_TIME
    rates[0] = 0.0
    return np.outer(rates, 1.0 - np.asarray(DEFAULT_DROP_GRID[:drops])).ravel()


def _numpy_table(rates: np.ndarray, max_servers: int, relaxed: bool) -> np.ndarray:
    """:func:`mdc_latency_table` on the numpy loops alone."""
    latency_at_rho = (
        vectorized._latency_at_rho(
            QUANTILE, PROC_TIME, RHO_MAX, erlang_c_at_rho(RHO_MAX, max_servers)
        )
        if relaxed
        else None
    )
    return vectorized._mdc_latency_table_numpy(
        QUANTILE, rates, PROC_TIME, max_servers, latency_at_rho, RHO_MAX
    )


def _sample(build) -> float:
    """Seconds per ``build()`` call, averaged over at least ``SAMPLE_SECONDS``."""
    calls = 0
    started = time.perf_counter()
    while True:
        build()
        calls += 1
        elapsed = time.perf_counter() - started
        if elapsed >= SAMPLE_SECONDS:
            return elapsed / calls


def run_tables_bench() -> dict:
    identical = True
    shapes = []
    for workload, scenarios, drops, max_servers in SHAPES:
        rates = _scenario_rates(scenarios, drops)
        loads = rates * PROC_TIME
        identical = identical and (
            erlang_c_table(loads, max_servers).tobytes()
            == vectorized._erlang_c_table_numpy(loads, max_servers).tobytes()
        )
        for relaxed in (False, True):
            compiled = mdc_latency_table(QUANTILE, rates, PROC_TIME, max_servers, relaxed, RHO_MAX)
            reference = _numpy_table(rates, max_servers, relaxed)
            identical = identical and compiled.tobytes() == reference.tobytes()
        numpy_s = compiled_s = float("inf")
        # Interleave the sides so drift in host speed hits both alike.
        for _ in range(SAMPLES):
            numpy_s = min(numpy_s, _sample(lambda: _numpy_table(rates, max_servers, True)))
            compiled_s = min(compiled_s, _sample(
                lambda: mdc_latency_table(QUANTILE, rates, PROC_TIME, max_servers, True, RHO_MAX)
            ))
        shapes.append({
            "workload": workload,
            "scenarios": rates.shape[0],
            "max_servers": max_servers,
            "numpy_ms": numpy_s * 1e3,
            "compiled_ms": compiled_s * 1e3,
            "speedup": numpy_s / compiled_s,
        })
    return {
        "samples": SAMPLES,
        "sample_seconds": SAMPLE_SECONDS,
        "cpu_count": os.cpu_count(),
        "kernel": native.kernels()["erlang"],
        "identical": identical,
        "gated_speedup": GATED_SPEEDUP,
        "shapes": shapes,
    }


def test_queueing_tables_bench(benchmark):
    data = benchmark.pedantic(run_tables_bench, rounds=1, iterations=1)

    text = format_table(
        ["workload", "shape", "numpy", "compiled", "speedup", "identical"],
        [
            [
                shape["workload"],
                f"{shape['scenarios']} x {shape['max_servers']}",
                f"{shape['numpy_ms']:.3f}ms",
                f"{shape['compiled_ms']:.3f}ms",
                f"{shape['speedup']:.1f}x",
                data["identical"],
            ]
            for shape in data["shapes"]
        ],
        title=f"== Relaxed M/D/c latency tables, min of {SAMPLES} samples ==",
    )
    write_result("queueing_tables", text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_tables.json").write_text(json.dumps(data, indent=2) + "\n")

    assert data["identical"]
    assert all(shape["speedup"] >= GATED_SPEEDUP for shape in data["shapes"])
