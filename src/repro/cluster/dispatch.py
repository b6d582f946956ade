"""Loader of the compiled dispatch kernel (``dispatch.c``).

:meth:`JobRouter.offer_many <repro.cluster.router.JobRouter.offer_many>`
routes every chunk through one C function that repeats
:meth:`JobRouter.offer <repro.cluster.router.JobRouter.offer>`'s exact
steps per request and draws from the router's own PCG64 through numpy's
exported ``random_standard_uniform`` and ``random_normal``, so latencies,
replica state and the generator's final position are the scalar loop's,
bit for bit, in every randomness regime.

The first dispatch of a process calls :func:`kernel`, which

1. compiles ``dispatch.c`` with the system ``cc`` into ``__pycache__``
   under a hash of source and flags -- once per checkout; the build is
   renamed into place atomically, so spawn workers may race;
2. opens the library with cffi's ABI mode next to numpy's
   ``numpy.random._generator`` module, which exports the draw functions;
3. checks it once against the scalar loop on two fixed chunks.

When any step fails it warns once (``RuntimeWarning`` naming the cause)
and returns ``None``; ``offer_many`` then runs the scalar loop.  Every
cffi object lives in this module, never on a router, so routers stay
picklable.
"""

from __future__ import annotations

import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["kernel", "kernel_name"]

SOURCE = Path(__file__).with_name("dispatch.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
#: Never fast-math and never contracted multiply-adds: the kernel must
#: round exactly like the Python reference.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

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


class KernelUnavailable(RuntimeError):
    """Why the compiled kernel cannot serve this process."""


@functools.cache
def kernel() -> Callable | None:
    """The compiled chunk router, or ``None`` when it cannot load.

    Loaded once per process, on first use.  The returned callable is the
    router's side of ``dispatch_chunk`` in ``dispatch.c``; see
    :meth:`repro.cluster.router.JobRouter._offer_compiled`.
    """
    try:
        run = _open(_build())
        _self_check(run)
    except KernelUnavailable as exc:
        warnings.warn(
            f"compiled dispatch kernel unavailable ({exc}); request chunks "
            "run the scalar JobRouter.offer loop",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return run


def kernel_name() -> str:
    """``"c"`` when chunks run the compiled kernel, else ``"python"``."""
    return "c" if kernel() is not None else "python"


def _build() -> Path:
    """Path of the compiled library, compiling it on a cache miss."""
    compiler = shutil.which("cc")
    if compiler is None:
        raise KernelUnavailable("no C compiler: cc is not on PATH")
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        raise KernelUnavailable(f"cannot read {SOURCE.name}: {exc}") from exc
    key = b"\0".join([source, " ".join(CFLAGS).encode(), platform.machine().encode()])
    target = CACHE_DIR / f"dispatch-{hashlib.sha256(key).hexdigest()[:16]}.so"
    if target.exists():
        return target
    try:
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=CACHE_DIR, prefix=".dispatch-")
    except OSError as exc:
        raise KernelUnavailable(f"cannot write to {CACHE_DIR}: {exc}") from exc
    try:
        partial = os.path.join(workdir, target.name)
        result = subprocess.run(
            [compiler, *CFLAGS, "-o", partial, str(SOURCE)],
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            detail = result.stderr.strip().splitlines()[:1] or ["no diagnostics"]
            raise KernelUnavailable(f"cc failed to compile {SOURCE.name}: {detail[0]}")
        os.replace(partial, target)
    except OSError as exc:
        raise KernelUnavailable(f"cannot build {target.name}: {exc}") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return target


def _open(library: Path) -> Callable:
    """Bind the library and numpy's draw functions behind one callable."""
    try:
        import cffi
    except ImportError as exc:
        raise KernelUnavailable("cffi is not installed") from exc
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    try:
        generator = ffi.dlopen(np.random._generator.__file__)
        uniform = generator.random_standard_uniform
        normal = generator.random_normal
    except (AttributeError, OSError) as exc:
        raise KernelUnavailable(f"numpy does not export its random C API: {exc}") from exc
    try:
        dispatch_chunk = ffi.dlopen(str(library)).dispatch_chunk
    except (AttributeError, OSError) as exc:
        raise KernelUnavailable(f"cannot open {library.name}: {exc}") from exc
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
            raise KernelUnavailable("the load-time check disagrees with the scalar loop")
