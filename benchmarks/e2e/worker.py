"""One benchmark run: a single workload, in a fresh process, timed from outside.

The orchestrator (:mod:`benchmarks.e2e.cli`) starts this module as
``python -m benchmarks.e2e.worker`` once per (workload, repeat, pass).  Each
run therefore starts with cold process-wide caches (the trained-predictor
cache and ``DEFAULT_TABLE_CACHE``), as a user's first run does, and executes
with ``workers=1``.

The run's seed replaces only ``ExperimentSpec.seed``: it drives the arrival
and policy RNGs through ``derive_trial_seed``.  Traces and N-HiTS training
do not depend on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Any

from repro import api
from repro.core.optimizer import DEFAULT_TABLE_CACHE
from repro.serve import ChunkedReplayCursor, Clock, ServeSpec, serve
from repro.sim.backends import get_backend_registry

from .probes import (
    LOOP_LAYERS,
    Patches,
    SpanRecorder,
    TickStamps,
    layer_probes,
    layer_totals,
    setup_probes,
    tick_stamp_probes,
)
from .stats import nearest_rank, tail
from .suite import WORKLOADS, Workload

__all__ = ["MeasuringClock", "run_workload"]

#: Span names whose busy time is the run's set-up.
SETUP_LAYERS = ("api.scenario_build", "forecast.train")


class MeasuringClock(Clock):
    """A serve clock that measures every tick and never waits.

    ``perf()`` records each reading.  With no solve deadline the serve loop
    reads it exactly twice per tick, so consecutive pairs are tick
    latencies.
    """

    measures = True
    realtime = False

    def __init__(self) -> None:
        self.readings: list[float] = []

    def perf(self) -> float:
        reading = time.perf_counter()
        self.readings.append(reading)
        return reading

    def sleep(self, seconds: float) -> None:
        pass

    def pace(self, virtual_seconds: float) -> None:
        pass

    def tick_latencies(self) -> list[float]:
        readings = self.readings
        return [readings[i + 1] - readings[i] for i in range(0, len(readings) - 1, 2)]


def _chunked_cursor(scenario) -> ChunkedReplayCursor:
    return ChunkedReplayCursor(scenario.eval_traces, schedule=(1,), initial_minutes=1)


def _digest(report) -> str:
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _load(workload: Workload, seed: int):
    """``(experiment spec, serve spec or None)`` with the seed applied."""
    if workload.serve:
        serve_spec = ServeSpec.from_file(workload.path)
        experiment = replace(serve_spec.experiment, seed=seed)
        return experiment, replace(serve_spec, experiment=experiment)
    return replace(api.ExperimentSpec.from_file(workload.path), seed=seed), None


def run_workload(
    workload: Workload, seed: int, traced: bool
) -> tuple[dict[str, Any], SpanRecorder, float]:
    """Run ``workload`` once in this process; return its record and spans.

    The record holds the cells attempted and failed, the correctness
    checks, and the metrics; the third value is the run's start time, the
    origin for span times.  Every probe is restored before this returns,
    whether the run succeeded or not.
    """
    experiment, serve_spec = _load(workload, seed)
    backend_cls = get_backend_registry().get(experiment.simulator).cls
    recorder = SpanRecorder()
    stamps = TickStamps()
    clock = MeasuringClock()
    completed: list[str] = []

    def progress(event) -> None:
        if event.stage == "trial-end":
            label = f"{event.scenario}/{event.policy}/{event.trial}"
            completed.append(label)
            recorder.mark_cell(label)

    outcome = None
    error = None
    with Patches() as patches:
        probes = layer_probes(recorder, backend_cls) if traced else setup_probes()
        for probe in probes:
            patches.replace(probe.owner, probe.attr, partial(recorder.wrap, probe))
        if serve_spec is None:
            for owner, attr, make in tick_stamp_probes(stamps, backend_cls):
                patches.replace(owner, attr, make)
        start = time.perf_counter()
        try:
            if serve_spec is None:
                outcome = api.run(experiment, progress=progress)
            else:
                outcome = serve(
                    serve_spec,
                    clock=clock,
                    cursor_factory=_chunked_cursor,
                    progress=progress,
                )
        except Exception:  # a failed run is reported, not raised
            error = traceback.format_exc()
        wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trials = experiment.trials
    attempted = len(experiment.scenarios) * len(experiment.policies) * trials
    record: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced),
        "attempted": attempted,
        "error": error,
    }
    if outcome is None:
        failed = attempted - len(completed)
        record.update(failed=failed, ok=False, checks={}, metrics={})
        return record, recorder, start

    served = None if serve_spec is None else outcome
    report = outcome if served is None else served.report
    checks, bad_cells = _check(workload, seed, report, served, clock)
    totals = layer_totals(recorder.spans)
    setup = sum(totals[name]["busy_s"] for name in SETUP_LAYERS if name in totals)
    latencies = stamps.latencies if served is None else clock.tick_latencies()
    faro_labels = {
        policy.display_label
        for policy in experiment.policies
        if policy.name.startswith("faro")
    }
    faro = [
        stats
        for per_policy in report.stats.values()
        for label, stats in per_policy.items()
        if label in faro_labels
    ]
    metrics: dict[str, float] = {
        "wall_s": wall,
        "setup_s": setup,
        "run_s": wall - setup,
        "tick_p50_ms": nearest_rank(latencies, 50) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "faro_violation_rate": sum(s.violation_rate_mean for s in faro) / len(faro),
        "faro_lost_utility": sum(s.lost_utility_mean for s in faro) / len(faro),
    }
    if traced:
        layers = _layer_metrics(
            totals,
            recorder.counters,
            DEFAULT_TABLE_CACHE.stats(),
            report,
            latencies,
            wall - setup,
            served,
        )
        metrics.update(layers)
        if served is not None:
            # Serve must merge byte-identically to batch at any seed.  Not
            # timed; the warm predictor cache cannot change a single bit.
            batch = api.run(experiment)
            checks["serve_equals_batch"] = _digest(batch) == checks["digest"]

    failed = len(bad_cells) * trials
    ok = failed == 0 and all(value is not False for value in checks.values())
    record.update(failed=failed, ok=ok, checks=checks, metrics=metrics)
    return record, recorder, start


def _check(workload: Workload, seed: int, report, served, clock: MeasuringClock):
    """``(checks, failed cells)`` of a finished run.

    Every cell needs finite summary statistics; a served cell also needs no
    held tick and no dry cursor poll.  At seed 0 the canonical report
    digest must equal the workload's pin.
    """
    bad_cells = {
        (scenario, label)
        for scenario, per_policy in report.stats.items()
        for label, stats in per_policy.items()
        if not all(
            math.isfinite(value)
            for key, value in stats.to_summary_dict().items()
            if key != "policy"
        )
    }
    checks: dict[str, Any] = {"digest": _digest(report), "finite": not bad_cells}
    if seed == 0 and workload.pin is not None:
        checks["pin_match"] = checks["digest"] == workload.pin
    if served is not None:
        unclean = {
            (window.scenario, window.policy)
            for window in served.windows
            if window.stats.held_ticks or window.stats.cursor_wait_polls
        }
        bad_cells |= unclean
        checks["serve_clean"] = not unclean
        checks["clock_pairs"] = len(clock.readings) == 2 * served.totals.ticks
    return checks, bad_cells


def _layer_metrics(totals, counters, cache, report, latencies, run_s, served):
    """Per-layer metrics of one traced run, all but ``trace.overhead_s``.

    ``served`` is the ``ServeResult`` of a serve workload, else ``None``.
    """

    def get(name: str, field: str) -> float:
        return totals[name][field] if name in totals else 0

    metrics: dict[str, float] = {}
    for name in (
        "api.scenario_build",
        "forecast.train",
        "forecast.sample",
        "core.policy_tick",
        "core.interp.probe",
        "sim.advance",
        "sim.observations",
        "sim.apply",
        "sim.end_of_chunk",
        "sim.collect",
    ):
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.busy_s"] = get(name, "busy_s")
    for name in ("core.policy_tick", "sim.advance"):
        metrics[f"{name}.self_s"] = get(name, "self_s")
    solves = totals["core.solve"]["durations"] if "core.solve" in totals else []
    metrics["core.solve.calls"] = len(solves)
    metrics["core.solve.busy_s"] = sum(solves)
    metrics["core.solve.p50_ms"] = nearest_rank(solves, 50) * 1e3 if solves else 0.0
    metrics["core.solve.nfev"] = counters.get("core.solve.nfev", 0)
    metrics["core.solve.post_nfev"] = counters.get("core.solve.post_nfev", 0)
    lookups = cache["hits"] + cache["misses"]
    metrics["core.table_cache.hits"] = cache["hits"]
    metrics["core.table_cache.misses"] = cache["misses"]
    metrics["core.table_cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    metrics["core.table_cache.bytes"] = cache["bytes"]
    metrics["baselines.tick.calls"] = get("baselines.tick", "calls")
    metrics["policy.tick.busy_s"] = get("core.policy_tick", "busy_s") + get(
        "baselines.tick", "busy_s"
    )
    metrics["cluster.offer_chunk.calls"] = get("cluster.offer_chunk", "calls")
    vector = scalar = 0
    for per_policy in report.stats.values():
        for stats in per_policy.values():
            for result in stats.results:
                dispatch = result.metadata.get("dispatch", {})
                vector += dispatch.get("vector_requests", 0)
                scalar += dispatch.get("scalar_requests", 0)
    requests = vector + scalar
    metrics["cluster.dispatch.requests"] = requests
    metrics["cluster.dispatch.vector_share"] = vector / requests if requests else 0.0
    loop_busy = sum(get(name, "busy_s") for name in LOOP_LAYERS)
    metrics["loop.tick.self_s"] = sum(latencies) - loop_busy
    metrics["loop.tick.tail_ms"] = tail(latencies) * 1e3
    metrics["serve.extend.calls"] = get("serve.extend", "calls")
    metrics["serve.cursor_wait_polls"] = (
        0 if served is None else served.totals.cursor_wait_polls
    )
    metrics["serve.windows"] = 0 if served is None else len(served.windows)
    metrics["trace.coverage"] = (loop_busy + get("sim.collect", "busy_s")) / run_s
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, help="JSON file for the run record")
    parser.add_argument("--spans", required=True, help="JSONL file for the spans")
    args = parser.parse_args(argv)
    record, recorder, origin = run_workload(
        WORKLOADS[args.workload], args.seed, bool(args.trace)
    )
    recorder.write_jsonl(args.spans, origin)
    Path(args.result).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
