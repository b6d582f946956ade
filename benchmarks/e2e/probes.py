"""Outside-in layer probes: spans recorded by wrapping public callables.

The benchmark never edits the program.  Inside the worker process only, it
replaces public functions and methods with timing wrappers (``setattr`` on
the owning module or class) and puts every original back when the run ends.
A wrapper records one span per call -- name, start, end, and the span that
was open when it started -- in memory; nothing is written until the run is
over.

Two probe sets exist.  :func:`setup_probes` times only scenario build and
predictor training, the two set-up layers, and is installed on the untraced
pass that produces the end-to-end metrics.  :func:`layer_probes` adds every
layer of the control loop for the traced pass.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import repro.api.builtin as builtin
import repro.core.autoscaler as autoscaler
import repro.core.interp as interp
from repro.api.spec import ScenarioSpec
from repro.baselines import AIADPolicy, FairSharePolicy, MarkPolicy, OneshotPolicy
from repro.cluster.rayserve import RayServeCluster
from repro.core.hybrid import HybridAutoscaler
from repro.forecast.predictor import ForecastWorkloadPredictor

__all__ = [
    "Probe",
    "SpanRecorder",
    "Patches",
    "TickStamps",
    "setup_probes",
    "layer_probes",
    "tick_stamp_probes",
    "self_times",
    "layer_totals",
    "LOOP_LAYERS",
]

_MISSING = object()

#: Spans that sit directly in the tick loop: one call each per tick (the
#: policy ticks are per policy family).  Their durations, summed, are the
#: part of the loop the layer probes explain.
LOOP_LAYERS = (
    "sim.advance",
    "sim.observations",
    "core.policy_tick",
    "baselines.tick",
    "sim.apply",
    "sim.end_of_chunk",
)


@dataclass(frozen=True)
class Probe:
    """One callable to wrap: ``owner.attr`` becomes a span named ``span``.

    ``on_result`` sees the wrapped call's return value (solver counters).
    """

    owner: Any
    attr: str
    span: str
    on_result: Callable[[Any], None] | None = None


class SpanRecorder:
    """In-memory span store for one run.

    A span is ``(id, name, start, end, parent_id)`` with ``perf_counter``
    times; ``parent_id`` is -1 for a span opened while no other span was
    open.  Spans are appended when they close.  ``counters`` holds values
    the wrappers read from return values; ``cells`` marks, for each
    completed trial, how many spans had closed when it ended.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: dict[str, float] = {}
        self.cells: list[tuple[int, str]] = []
        self._next_id = 0
        self._open: list[int] = [-1]

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        recorder = self
        spans = self.spans
        open_ids = self._open
        perf = time.perf_counter
        name = probe.span
        on_result = probe.on_result

        def span_wrapper(*args, **kwargs):
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            parent = open_ids[-1]
            open_ids.append(span_id)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                open_ids.pop()
                spans.append((span_id, name, start, end, parent))
            if on_result is not None:
                on_result(result)
            return result

        span_wrapper.__wrapped__ = fn
        return span_wrapper

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def mark_cell(self, label: str) -> None:
        """Every span closed since the previous mark belongs to ``label``."""
        self.cells.append((len(self.spans), label))

    def write_jsonl(self, path, origin: float) -> None:
        """One JSON object per span, times in seconds since ``origin``."""
        marks = iter(self.cells)
        boundary, label = next(marks, (None, None))
        with open(path, "w") as fh:
            for index, (span_id, name, start, end, parent) in enumerate(self.spans):
                while boundary is not None and index >= boundary:
                    boundary, label = next(marks, (None, None))
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "cell": label if boundary is not None else None,
                }
                fh.write(json.dumps(record) + "\n")


class TickStamps:
    """Per-tick latency of the batch loop, from two cheap wrappers.

    ``SimHarness.run`` stamps the start of a trial's loop; every
    ``end_of_chunk`` return closes one tick.  A tick's latency is the time
    between its end stamp and the previous stamp, which covers advance,
    observations, the policy tick, apply and end_of_chunk -- the same span
    the serve loop measures on its clock.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self._last = 0.0

    def wrap_start(self, fn: Callable) -> Callable:
        stamps = self
        perf = time.perf_counter

        def run_wrapper(*args, **kwargs):
            stamps._last = perf()
            return fn(*args, **kwargs)

        run_wrapper.__wrapped__ = fn
        return run_wrapper

    def wrap_end(self, fn: Callable) -> Callable:
        stamps = self
        latencies = self.latencies
        perf = time.perf_counter

        def end_wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            now = perf()
            latencies.append(now - stamps._last)
            stamps._last = now
            return result

        end_wrapper.__wrapped__ = fn
        return end_wrapper


class Patches:
    """Attribute replacements that are undone in reverse order on exit.

    A class attribute that was inherited (absent from the class's own
    ``__dict__``) is deleted again on restore rather than pinned, so the
    class is left exactly as it was found.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(
        self, owner: Any, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, own))

    def restore(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def setup_probes() -> list[Probe]:
    """The set-up layers: scenario build and predictor training."""
    return [
        Probe(ScenarioSpec, "build", "api.scenario_build"),
        Probe(builtin, "train_predictors", "forecast.train"),
    ]


def layer_probes(recorder: SpanRecorder, backend_cls: type) -> list[Probe]:
    """Every layer the traced pass times, set-up layers included.

    ``JobRouter.offer`` is deliberately absent: it runs millions of times
    per run, and the backend's ``metadata["dispatch"]`` counters stand in
    for it.
    """

    def count_allocation(allocation) -> None:
        recorder.add("core.solve.nfev", allocation.nfev)
        recorder.add("core.solve.post_nfev", allocation.post_nfev)

    def count_hierarchical(result) -> None:
        count_allocation(result.allocation)

    probes = setup_probes() + [
        Probe(ForecastWorkloadPredictor, "sample_paths", "forecast.sample"),
        Probe(HybridAutoscaler, "tick", "core.policy_tick"),
        Probe(autoscaler, "solve_allocation", "core.solve", count_allocation),
        Probe(autoscaler, "solve_hierarchical", "core.solve", count_hierarchical),
        Probe(interp, "numba_available", "core.interp.probe"),
        Probe(RayServeCluster, "offer_chunk", "cluster.offer_chunk"),
        Probe(backend_cls, "extend_traces", "serve.extend"),
    ]
    for policy_cls in (FairSharePolicy, OneshotPolicy, AIADPolicy, MarkPolicy):
        probes.append(Probe(policy_cls, "tick", "baselines.tick"))
    for hook in ("advance", "observations", "apply", "end_of_chunk", "collect"):
        probes.append(Probe(backend_cls, hook, f"sim.{hook}"))
    return probes


def tick_stamp_probes(
    stamps: TickStamps, backend_cls: type
) -> list[tuple[Any, str, Callable]]:
    """``(owner, attr, make)`` triples that install the batch tick stamps.

    Installed after the span probes, so the end stamp is taken outside the
    ``sim.end_of_chunk`` span.
    """
    return [
        (backend_cls, "run", stamps.wrap_start),
        (backend_cls, "end_of_chunk", stamps.wrap_end),
    ]


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[tuple[int, str, float, float, int]]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _span_id, _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, ()), start, end)
        for span_id, _name, start, end, _parent in spans
    }


def layer_totals(
    spans: Sequence[tuple[int, str, float, float, int]],
) -> dict[str, dict[str, Any]]:
    """Per span name: ``calls``, ``busy_s``, ``self_s`` and the durations."""
    own = self_times(spans)
    totals: dict[str, dict[str, Any]] = {}
    for span_id, name, start, end, _parent in spans:
        entry = totals.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
        )
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += own[span_id]
        entry["durations"].append(end - start)
    return totals
