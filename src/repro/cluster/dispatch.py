"""The compiled dispatch kernel (``dispatch.c``) and its binding.

:meth:`JobRouter.offer_many <repro.cluster.router.JobRouter.offer_many>`
routes every chunk through one C function that repeats
:meth:`JobRouter.offer <repro.cluster.router.JobRouter.offer>`'s exact
steps per request and draws from the router's own PCG64 through numpy's
exported ``random_standard_uniform`` and ``random_normal``, so latencies,
replica state and the generator's final position are the scalar loop's,
bit for bit, in every randomness regime.

The first dispatch of a process calls :func:`kernel`, which loads
``dispatch.c`` through :func:`repro.native.load`, binds it next to
numpy's ``numpy.random._generator`` module, which exports the draw
functions, and checks it once against the scalar loop on two fixed
chunks.  When the kernel cannot load, ``offer_many`` runs the scalar
loop.  Every cffi object lives in this module, never on a router, so
routers stay picklable.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Callable

import numpy as np

from repro import native

__all__ = ["kernel"]

SOURCE = Path(__file__).with_name("dispatch.c")

_CDEF = """
double random_standard_uniform(void *bitgen);
double random_normal(void *bitgen, double loc, double scale);
void dispatch_chunk(void *bitgen, double (*uniform)(void *),
                    double (*normal)(void *, double, double),
                    const double *arrivals, double *latencies, int64_t n,
                    double *free_at, const double *ready_at, const int64_t *ids,
                    int64_t *served, int64_t *heap, int64_t replicas,
                    double *pending, int64_t *queue,
                    double drop_rate, double proc_time, double jitter,
                    int64_t threshold, int64_t *counts);
"""


@functools.cache
def kernel() -> Callable | None:
    """The compiled chunk router, or ``None`` when it cannot load.

    Loaded once per process, on first use.  The returned callable is the
    router's side of ``dispatch_chunk`` in ``dispatch.c``; see
    :meth:`repro.cluster.router.JobRouter._offer_compiled`.
    """
    return native.load(
        "dispatch", SOURCE, _CDEF, _bind, _self_check,
        fallback="request chunks run the scalar JobRouter.offer loop",
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
    new, unpack, from_buffer = ffi.new, ffi.unpack, ffi.from_buffer

    def run(rng, arrivals, latencies, free_at, ready_at, ids, served, pending,
            drop_rate, proc_time, jitter, threshold):
        """Route ``arrivals`` into ``latencies``; the pool and the pending
        starts come in as lists and go out as ``(free_at, served, pending,
        (accepted, tail_dropped, explicit_dropped))``."""
        count, waiting = len(free_at), len(pending)
        free_buffer = new(doubles, free_at)
        served_buffer = new(longs, served)
        pending_buffer = new(doubles, waiting + arrivals.shape[0])
        pending_buffer[0:waiting] = pending
        tallies = new(longs, [0, waiting, 0, 0, 0])
        dispatch_chunk(
            rng.bit_generator.cffi.bit_generator, uniform, normal,
            from_buffer(doubles, arrivals), from_buffer(doubles, latencies),
            arrivals.shape[0], free_buffer, new(doubles, ready_at),
            new(longs, ids), served_buffer, new(longs, count), count,
            pending_buffer, tallies, drop_rate, proc_time, jitter, threshold,
            tallies + 2,
        )
        head, tail, accepted, tail_dropped, explicit_dropped = tallies
        return (
            unpack(free_buffer, count),
            unpack(served_buffer, count),
            unpack(pending_buffer + head, tail - head),
            (accepted, tail_dropped, explicit_dropped),
        )

    return run


def _self_check(run: Callable) -> None:
    """Raise unless ``run`` reproduces the scalar loop on two fixed chunks.

    In both, one replica is still cold-starting and the queue overflows
    its threshold.  In the first, drops and jitter interleave their
    draws; in the second, service is exact in binary, so requests arrive
    at the very instants earlier ones start.
    """
    from repro.cluster.models import ModelProfile
    from repro.cluster.router import JobRouter

    def make(proc_time, jitter, threshold, drop_rate) -> JobRouter:
        model = ModelProfile(name="check", proc_time=proc_time, proc_jitter=jitter)
        router = JobRouter("check", model, initial_replicas=2, queue_threshold=threshold,
                           cold_start_range=(0.5, 1.5), seed=20250330)
        router.scale_to(3, now=0.0)
        router.drop_rate = drop_rate
        return router

    def state(router: JobRouter):
        return (
            [(r.replica_id, r.ready_at, r.free_at, r.served) for r in router._replicas.values()],
            list(router._pending_starts),
            vars(router.totals),
            router._rng.bit_generator.state,
        )

    cases = (
        ((0.2, 0.3, 4, 0.1), np.linspace(0.0, 3.0, 96)),
        ((0.25, 0.0, 2, 0.0), np.repeat(np.arange(0.0, 3.0, 0.125), 3)),
    )
    for settings, arrivals in cases:
        scalar, compiled = make(*settings), make(*settings)
        expected = [scalar.offer(arrival) for arrival in arrivals.tolist()]
        got = compiled._offer_compiled(run, arrivals).tolist()
        if got != expected or state(compiled) != state(scalar):
            raise native.KernelUnavailable(
                "the load-time check disagrees with the scalar loop"
            )
