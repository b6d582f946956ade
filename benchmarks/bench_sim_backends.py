"""Simulation backends: wall-clock per fidelity + batch-offer identity.

The backend refactor's performance contract, pinned for the perf gate
(``tools/check_perf.py`` vs ``results/BENCH_sim.json``):

- the **request** path's compiled chunk dispatch must actually pay: on a
  steady multi-replica workload the vectorized run must beat the
  per-request loop by a real factor, and on an adaptive-autoscaler
  workload it must at minimum never be slower;
- batch offers are **bit-identical** to per-request offers (asserted on
  full per-minute series, not summaries);
- the **flow** and **hybrid** paths must hold their wall-clock, and the
  hybrid backend must land between its two parents (that is its reason to
  exist: request-level fidelity for flagged jobs at near-flow cost).

Absolute numbers are machine-dependent; the gate compares against the
checked-in baseline with a generous tolerance.
"""

import json
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.baselines.aiad import AIADPolicy
from repro.cluster.job import InferenceJobSpec
from repro.cluster.kubernetes import ResourceQuota
from repro.cluster.models import RESNET34, ModelProfile
from repro.experiments.report import format_table
from repro.policy import AutoscalePolicy, ScalingDecision
from repro.sim import get_backend_registry
from repro.sim.simulation import SimulationConfig

#: Evaluation window of the measured workloads (minutes).
BENCH_MINUTES = 30

#: Jobs in the adaptive workload.
BENCH_JOBS = 6

#: Speedup the perf gate demands from batch offers on the steady workload.
GATED_VECTOR_SPEEDUP = 1.5

#: Speedup the perf gate demands from the compiled kernel on the paper's
#: jittered-service regime and on explicit-drop workloads.
GATED_JITTER_SPEEDUP = 2.0

#: A deterministic-service ResNet34 profile: no per-request jitter draw.
DETERMINISTIC_MODEL = ModelProfile(
    name="resnet34-det", proc_time=0.180, proc_jitter=0.0
)


class _PinnedPolicy(AutoscalePolicy):
    """Pins every job at a fixed replica count (steady-state workload)."""

    name = "Pinned"
    tick_interval = 10.0

    def __init__(self, replicas: dict[str, int], drop_rates: dict[str, float] | None = None):
        self._replicas = replicas
        self._drop_rates = drop_rates or {}
        self._applied = False

    def reset(self):
        self._applied = False

    def tick(self, now, observations):
        if self._applied:
            return None
        self._applied = True
        return ScalingDecision(
            replicas=dict(self._replicas), drop_rates=dict(self._drop_rates)
        )


def _adaptive_workload(model, minutes=BENCH_MINUTES):
    """A diurnal-ish 6-job workload under an adaptive autoscaler."""
    jobs = [
        InferenceJobSpec.with_default_slo(f"job{i}", model)
        for i in range(BENCH_JOBS)
    ]
    minutes = np.arange(minutes, dtype=float)
    traces = {
        job.name: 260.0 + 160.0 * np.sin(minutes / (4.0 + index) + index)
        for index, job in enumerate(jobs)
    }
    policy = AIADPolicy(slos={job.name: job.slo.target for job in jobs})
    return jobs, traces, policy, {job.name: 4 for job in jobs}


def _steady_workload(model, minutes=BENCH_MINUTES):
    """Four hot jobs (100 req/s each) on pinned 30-replica pools."""
    jobs = [
        InferenceJobSpec.with_default_slo(f"hot{i}", model) for i in range(4)
    ]
    traces = {job.name: np.full(minutes, 6000.0) for job in jobs}
    replicas = {job.name: 30 for job in jobs}
    return jobs, traces, _PinnedPolicy(replicas), replicas


def _paper_steady_workload(model, minutes=BENCH_MINUTES):
    """Four jittered-service jobs (10 req/s) on pinned 3-replica pools.

    The paper's default randomness regime on the small pools real on-prem
    jobs run at, where the compiled kernel must beat the per-request loop
    by ``GATED_JITTER_SPEEDUP``.
    """
    jobs = [
        InferenceJobSpec.with_default_slo(f"jit{i}", model) for i in range(4)
    ]
    traces = {job.name: np.full(minutes, 600.0) for job in jobs}
    replicas = {job.name: 3 for job in jobs}
    return jobs, traces, _PinnedPolicy(replicas), replicas


def _drops_workload(model, minutes=BENCH_MINUTES):
    """The steady hot pools under a pinned 10% explicit-drop directive.

    Deterministic service keeps the only randomness in the drop lottery:
    one uniform draw per request.
    """
    jobs = [
        InferenceJobSpec.with_default_slo(f"drop{i}", model) for i in range(4)
    ]
    traces = {job.name: np.full(minutes, 6000.0) for job in jobs}
    replicas = {job.name: 30 for job in jobs}
    policy = _PinnedPolicy(replicas, drop_rates={job.name: 0.1 for job in jobs})
    return jobs, traces, policy, replicas


def _build(backend: str, workload, model, *, options=None, seed=0,
           minutes=BENCH_MINUTES):
    jobs, traces, policy, initial = workload(model, minutes)
    config = SimulationConfig(
        duration_minutes=minutes, seed=seed, cold_start_range=(30.0, 40.0)
    )
    total = sum(initial.values())
    return get_backend_registry().create(
        backend,
        jobs,
        traces,
        policy,
        ResourceQuota.of_replicas(max(total, 4 * len(jobs))),
        config=config,
        initial_replicas=initial,
        options=options,
    )


def _series_identical(a, b) -> bool:
    for name in a.jobs:
        for field in ("arrivals", "drops", "violations", "latency_p",
                      "utility", "effective_utility", "replicas"):
            if not np.array_equal(getattr(a.jobs[name], field),
                                  getattr(b.jobs[name], field)):
                return False
    return True


def _time_run(build, repeats: int = 1) -> tuple[float, object]:
    """Best-of-``repeats`` wall time of a freshly built simulation.

    The analytic/hybrid runs finish in tens of milliseconds, far inside
    this machine class's scheduler noise; gating them on a single sample
    would fail on a busy box, so the cheap points take the best of
    several runs (the request-level points are long enough to stand on
    one).
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        sim = build()
        started = time.perf_counter()
        result = sim.run()
        best = min(best, time.perf_counter() - started)
    return best, result


def run_sim_bench(minutes: int = BENCH_MINUTES) -> dict:
    """Measure every point over a ``minutes``-long window.

    The default window is what the checked-in baseline describes; the
    pre-PR smoke gate (``run_checks.py --bench-smoke``) passes a short
    one to surface structural drift in seconds.
    """

    def build(backend, workload, model, *, options=None):
        return _build(backend, workload, model, options=options,
                      minutes=minutes)

    points = []

    # Steady workload: the batch fast path must win outright.
    hot_vector_s, hot_vector = _time_run(
        lambda: build("request", _steady_workload, DETERMINISTIC_MODEL,
                       options={"vectorize": True})
    )
    hot_scalar_s, hot_scalar = _time_run(
        lambda: build("request", _steady_workload, DETERMINISTIC_MODEL,
                       options={"vectorize": False})
    )
    identical = _series_identical(hot_vector, hot_scalar)
    points.append({"name": "request-steady-vector", "wall_s": hot_vector_s})
    points.append({"name": "request-steady-scalar", "wall_s": hot_scalar_s})

    # Adaptive workload: small pools, scale-downs, bursts -- batching must
    # at minimum never pessimize (and the series must still be identical).
    adaptive_vector_s, adaptive_vector = _time_run(
        lambda: build("request", _adaptive_workload, DETERMINISTIC_MODEL,
                       options={"vectorize": True}),
        repeats=3,
    )
    adaptive_scalar_s, adaptive_scalar = _time_run(
        lambda: build("request", _adaptive_workload, DETERMINISTIC_MODEL,
                       options={"vectorize": False}),
        repeats=3,
    )
    identical = identical and _series_identical(adaptive_vector, adaptive_scalar)
    points.append({"name": "request-adaptive", "wall_s": adaptive_vector_s})
    points.append({"name": "request-adaptive-scalar", "wall_s": adaptive_scalar_s})

    # The paper's default jittered service under the adaptive autoscaler
    # (small shifting pools; the run-splitting kernel carries the chunks).
    paper_s, _ = _time_run(
        lambda: build("request", _adaptive_workload, RESNET34), repeats=3
    )
    points.append({"name": "request-paper", "wall_s": paper_s})

    # Jittered steady pools: the fused kernel's gated regime.  Randomness
    # makes "identical" a three-way claim here: latencies, series, and the
    # RNG stream itself must match the scalar loop draw for draw.
    jitter_vector_s, jitter_vector = _time_run(
        lambda: build("request", _paper_steady_workload, RESNET34,
                       options={"vectorize": True}),
        repeats=3,
    )
    jitter_scalar_s, jitter_scalar = _time_run(
        lambda: build("request", _paper_steady_workload, RESNET34,
                       options={"vectorize": False}),
        repeats=3,
    )
    identical = identical and _series_identical(jitter_vector, jitter_scalar)
    points.append({"name": "request-paper-vector", "wall_s": jitter_vector_s})
    points.append({"name": "request-paper-scalar", "wall_s": jitter_scalar_s})

    # Explicit-drop directives on hot pools: the drop-thinned recurrence.
    drops_vector_s, drops_vector = _time_run(
        lambda: build("request", _drops_workload, DETERMINISTIC_MODEL,
                       options={"vectorize": True})
    )
    drops_scalar_s, drops_scalar = _time_run(
        lambda: build("request", _drops_workload, DETERMINISTIC_MODEL,
                       options={"vectorize": False})
    )
    identical = identical and _series_identical(drops_vector, drops_scalar)
    points.append({"name": "request-drops-vector", "wall_s": drops_vector_s})
    points.append({"name": "request-drops-scalar", "wall_s": drops_scalar_s})

    # Analytic flow and the hybrid split on the adaptive workload.
    flow_s, _ = _time_run(
        lambda: build("flow", _adaptive_workload, DETERMINISTIC_MODEL),
        repeats=5,
    )
    points.append({"name": "flow", "wall_s": flow_s})
    hybrid_s, hybrid_result = _time_run(
        lambda: build("hybrid", _adaptive_workload, DETERMINISTIC_MODEL,
                       options={"auto_request_jobs": 1}),
        repeats=5,
    )
    points.append({"name": "hybrid", "wall_s": hybrid_s})

    return {
        "minutes": minutes,
        "vector_identical": identical,
        "steady_vector_speedup": hot_scalar_s / hot_vector_s,
        "adaptive_vector_speedup": adaptive_scalar_s / adaptive_vector_s,
        "jittered_vector_speedup": jitter_scalar_s / jitter_vector_s,
        "drops_vector_speedup": drops_scalar_s / drops_vector_s,
        "gated_vector_speedup": GATED_VECTOR_SPEEDUP,
        "gated_jitter_speedup": GATED_JITTER_SPEEDUP,
        "hybrid_request_jobs": hybrid_result.metadata["request_jobs"],
        "points": points,
    }


def test_sim_backend_bench(benchmark):
    data = benchmark.pedantic(run_sim_bench, rounds=1, iterations=1)

    by_name = {point["name"]: point["wall_s"] for point in data["points"]}
    rows = [
        ["request steady (batch)", f"{by_name['request-steady-vector']*1000:.0f}ms",
         "byte-identical" if data["vector_identical"] else "DIVERGED"],
        ["request steady (per-request)", f"{by_name['request-steady-scalar']*1000:.0f}ms",
         f"batch is {data['steady_vector_speedup']:.2f}x faster"],
        ["request adaptive (batch)", f"{by_name['request-adaptive']*1000:.0f}ms",
         f"batch is {data['adaptive_vector_speedup']:.2f}x faster"],
        ["request adaptive (per-request)",
         f"{by_name['request-adaptive-scalar']*1000:.0f}ms", "-"],
        ["request (paper jitter, adaptive)", f"{by_name['request-paper']*1000:.0f}ms", "-"],
        ["request jittered steady (batch)",
         f"{by_name['request-paper-vector']*1000:.0f}ms",
         f"batch is {data['jittered_vector_speedup']:.2f}x faster"],
        ["request jittered steady (per-request)",
         f"{by_name['request-paper-scalar']*1000:.0f}ms", "-"],
        ["request drops (batch)", f"{by_name['request-drops-vector']*1000:.0f}ms",
         f"batch is {data['drops_vector_speedup']:.2f}x faster"],
        ["request drops (per-request)",
         f"{by_name['request-drops-scalar']*1000:.0f}ms", "-"],
        ["flow (analytic)", f"{by_name['flow']*1000:.0f}ms", "-"],
        ["hybrid (1 flagged job)", f"{by_name['hybrid']*1000:.0f}ms",
         f"request jobs: {data['hybrid_request_jobs']}"],
    ]
    text = format_table(
        ["configuration", "wall-clock", "notes"],
        rows,
        title=f"== Simulation backends ({BENCH_MINUTES}-minute workloads) ==",
    )
    write_result("sim_backends", text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sim.json").write_text(json.dumps(data, indent=2) + "\n")

    # The batch path may never change a bit of output...
    assert data["vector_identical"]
    # ...must pay for itself where it engages fully...
    assert data["steady_vector_speedup"] >= GATED_VECTOR_SPEEDUP
    # ...including under the paper's jittered service and drop directives...
    assert data["jittered_vector_speedup"] >= GATED_JITTER_SPEEDUP
    assert data["drops_vector_speedup"] >= GATED_JITTER_SPEEDUP
    # ...and may never pessimize the adaptive path (noise margin).
    assert by_name["request-adaptive"] <= by_name["request-adaptive-scalar"] * 1.15
    # The hybrid backend must sit strictly between its parents.
    assert by_name["flow"] < by_name["hybrid"] < by_name["request-adaptive"]


# ------------------------------------------------------------ smoke gate

#: Window of the pre-PR smoke run: long enough for the kernels to engage,
#: short enough to finish in a few seconds.
SMOKE_MINUTES = 4

#: Fraction of each gated speedup the smoke run must reach.  The smoke
#: window is short, so per-run setup overhead eats into the measured
#: ratios; the point of the smoke gate is structural drift (a kernel that
#: stopped engaging, a diverged series), not calibrated wall-clock.
SMOKE_SPEEDUP_MARGIN = 0.75


def run_smoke(minutes: int = SMOKE_MINUTES) -> int:
    """Tiny-window structural gate for ``run_checks.py --bench-smoke``.

    Runs every bench point over a short window and checks the identity
    invariant plus softened speedup floors.  Writes no baseline and no
    results file -- this is a pre-PR tripwire, not a measurement.
    """
    data = run_sim_bench(minutes=minutes)
    checks = [
        ("batch-identity", "== scalar",
         "== scalar" if data["vector_identical"] else "DIVERGED",
         data["vector_identical"]),
    ]
    for key, gate_key in (
        ("steady_vector_speedup", "gated_vector_speedup"),
        ("jittered_vector_speedup", "gated_jitter_speedup"),
        ("drops_vector_speedup", "gated_jitter_speedup"),
    ):
        floor = data[gate_key] * SMOKE_SPEEDUP_MARGIN
        checks.append(
            (key.replace("_vector_speedup", "-speedup"), f">= {floor:.2f}x",
             f"{data[key]:.2f}x", data[key] >= floor)
        )
    ok = all(passed for *_, passed in checks)
    print(
        format_table(
            ["check", "floor", "measured", "verdict"],
            [[name, floor, measured, "ok" if passed else "FAILED"]
             for name, floor, measured, passed in checks],
            title=f"== Sim-backend smoke ({minutes}-minute window) ==",
        )
    )
    print("OK: sim-backend smoke passed" if ok else "FAIL: sim-backend smoke")
    return 0 if ok else 1


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=run_smoke.__doc__.splitlines()[0])
    parser.add_argument("--minutes", type=int, default=SMOKE_MINUTES)
    args = parser.parse_args()
    sys.exit(run_smoke(minutes=args.minutes))
