"""The compiled dispatch kernel (``dispatch.c``) and its binding.

:meth:`JobRouter.offer_many <repro.cluster.router.JobRouter.offer_many>`
routes and records every chunk with one C function call that repeats
:meth:`JobRouter.offer <repro.cluster.router.JobRouter.offer>`'s and
:meth:`MetricsCollector.record <repro.cluster.metrics.MetricsCollector.record>`'s
exact steps per request.  It works in place on the router's and the
collector's numpy arrays, and draws from the router's own PCG64 through
numpy's exported ``random_standard_uniform`` and ``random_normal``, so
replica state, pending starts, bins, latencies and the generator's final
position are the scalar loop's, bit for bit, in every randomness regime.

The first dispatch of a process calls :func:`kernel`, which loads
``dispatch.c`` through :func:`repro.native.load`, binds it next to
numpy's ``numpy.random._generator`` module, which exports the draw
functions, and checks it once against the scalar loop on two fixed
chunks.  When the kernel cannot load, ``offer_many`` runs the scalar
loop.  Every cffi object lives in this module, never on a router or a
collector, so both stay picklable.
"""

from __future__ import annotations

import functools
import weakref
from pathlib import Path
from typing import Callable

import numpy as np

from repro import native

__all__ = ["kernel", "snapshot"]

SOURCE = Path(__file__).with_name("dispatch.c")

_CDEF = """
double random_standard_uniform(void *bitgen);
double random_normal(void *bitgen, double loc, double scale);
int64_t dispatch_chunk(void *bitgen, double (*uniform)(void *),
                       double (*normal)(void *, double, double),
                       const double *arrivals, int64_t n,
                       double *free_at, const double *ready_at, const int64_t *ids,
                       int64_t *served, int64_t replicas,
                       double *pending, int64_t ring_capacity, int64_t *queue,
                       double drop_rate, double proc_time, double jitter,
                       int64_t threshold,
                       int64_t *counts, double *proc_sums, int64_t *minutes,
                       int64_t bin_capacity, double *latencies,
                       int64_t latency_capacity, int64_t *fill,
                       double bin_seconds, int64_t bins_per_minute,
                       double slo_target, double record_proc_time,
                       int64_t *totals);
"""


@functools.cache
def kernel() -> Callable | None:
    """The compiled chunk router, or ``None`` when it cannot load.

    Loaded once per process, on first use.  The returned callable is
    ``run(router, collector, arrivals) -> (served, tail_dropped,
    explicit_dropped)``; see
    :meth:`repro.cluster.router.JobRouter._offer_compiled`.
    """
    return native.load(
        "dispatch", SOURCE, _CDEF, _bind, _self_check,
        fallback="request chunks run the scalar JobRouter.offer and "
        "MetricsCollector.record loop",
    )


def _bind(ffi, library) -> Callable:
    """Bind the library and numpy's draw functions behind one callable."""
    try:
        generator = ffi.dlopen(np.random._generator.__file__)
        uniform = generator.random_standard_uniform
        normal = generator.random_normal
    except (AttributeError, OSError) as exc:
        raise native.KernelUnavailable(
            f"numpy does not export its random C API: {exc}"
        ) from exc
    dispatch_chunk = library.dispatch_chunk
    # Types resolved once: a type given by name is re-parsed on every call.
    doubles, longs = ffi.typeof("double[]"), ffi.typeof("int64_t[]")
    tallies = ffi.typeof("int64_t[3]")
    new, from_buffer = ffi.new, ffi.from_buffer
    router_types = (doubles, doubles, longs, longs, doubles, longs)
    collector_types = (longs, doubles, longs, doubles, longs)
    # The cffi views of each router's and collector's arrays, made again
    # once one of its arrays is replaced (a scale event, a buffer grown).
    # A view keeps its array alive, so an unchanged id is the same array.
    views = weakref.WeakKeyDictionary()

    def viewed(owner, arrays, types):
        key = tuple(map(id, arrays))
        cached = views.get(owner)
        if cached is None or cached[0] != key:
            cached = views[owner] = (key, tuple(map(from_buffer, types, arrays)))
        return cached[1]

    def call(router, collector, arrivals, totals) -> int:
        free_at, ready_at, ids, served, pending, queue = viewed(router, (
            router._free_at, router._ready_at, router._ids, router._served,
            router._pending, router._queue,
        ), router_types)
        counts, proc_sums, minutes, latencies, fill = viewed(collector, (
            collector._counts, collector._proc_sums, collector._minutes,
            collector._latencies, collector._fill,
        ), collector_types)
        return dispatch_chunk(
            router._rng.bit_generator.cffi.bit_generator, uniform, normal,
            from_buffer(doubles, arrivals), arrivals.shape[0],
            free_at, ready_at, ids, served, len(ids),
            pending, len(pending), queue,
            router.drop_rate, router.proc_time, router.model.proc_jitter,
            router.queue_threshold,
            counts, proc_sums, minutes, len(minutes) * collector.bins_per_minute,
            latencies, len(latencies), fill,
            collector.bin_seconds, collector.bins_per_minute,
            collector.slo.target, collector.proc_time, totals,
        )

    def run(router, collector, arrivals):
        """Route ``arrivals`` through ``router`` and record them in
        ``collector``, in place; returns ``(served, tail_dropped,
        explicit_dropped)``."""
        totals = new(tallies)
        status = call(router, collector, arrivals, totals)
        if status == 1:
            router._reserve_queue(arrivals.shape[0])
            collector._reserve(float(arrivals[-1]), arrivals.shape[0])
            status = call(router, collector, arrivals, totals)
        if status == 2:
            raise MemoryError("no memory for the dispatch kernel's replica heap")
        if status:
            raise ValueError(
                "a chunk must hold finite, nondecreasing arrivals from t=0 that "
                "do not precede the collector's latest bin"
            )
        return tuple(totals)

    return run


def snapshot(router=None, collector=None) -> dict:
    """The state on which the compiled and the scalar path must agree.

    A ``router``'s pool, pending starts, totals and generator state; a
    ``collector``'s bins, per-minute arrivals, ``proc_time`` sums and
    latencies, the float arrays as bytes.  Buffer capacities are left out:
    the two paths grow their buffers at different times.
    """
    state = {}
    if router is not None:
        state.update(
            pool=list(zip(
                router._ids.tolist(), router._ready_at.tolist(),
                router._free_at.tolist(), router._served.tolist(),
            )),
            pending=router.pending_starts(),
            totals=dict(vars(router.totals)),
            rng=router._rng.bit_generator.state,
        )
    if collector is not None:
        opened, stored = collector._fill.tolist()
        minutes = -(-opened // collector.bins_per_minute)
        state.update(
            bins=collector._counts[:opened].tolist(),
            proc_sums=collector._proc_sums[:opened].tobytes(),
            minutes=collector._minutes[:minutes].tolist(),
            latencies=collector._latencies[:stored].tobytes(),
        )
    return state


def _self_check(run: Callable) -> None:
    """Raise unless ``run`` reproduces the scalar loop on two fixed chunks.

    In both, one replica is still cold-starting, the queue overflows its
    threshold, and the collector's bins are 0.1 s long, where Python's
    float floor division and ``floor(a / b)`` disagree (``1.0 // 0.1`` is
    9.0).  In the first, drops and jitter interleave their draws; in the
    second, service is exact in binary, so requests arrive at the very
    instants earlier ones start and some latencies equal the SLO target.
    """
    from repro.cluster.metrics import MetricsCollector
    from repro.cluster.models import ModelProfile
    from repro.cluster.router import JobRouter
    from repro.core.utility import SLO

    def make(proc_time, jitter, threshold, drop_rate):
        model = ModelProfile(name="check", proc_time=proc_time, proc_jitter=jitter)
        router = JobRouter("check", model, initial_replicas=2, queue_threshold=threshold,
                           cold_start_range=(0.5, 1.5), seed=20250330)
        router.scale_to(3, now=0.0)
        router.drop_rate = drop_rate
        collector = MetricsCollector("check", SLO(0.5), proc_time, bin_seconds=0.1)
        return router, collector

    cases = (
        ((0.2, 0.3, 4, 0.1), np.linspace(0.0, 3.0, 96)),
        ((0.25, 0.0, 2, 0.0), np.repeat(np.arange(0.0, 3.0, 0.125), 3)),
    )
    for settings, arrivals in cases:
        (router, collector), compiled = make(*settings), make(*settings)
        for arrival in arrivals.tolist():
            collector.record(arrival, router.offer(arrival))
        compiled[0]._offer_compiled(run, compiled[1], arrivals)
        if snapshot(*compiled) != snapshot(router, collector):
            raise native.KernelUnavailable(
                "the load-time check disagrees with the scalar loop"
            )
