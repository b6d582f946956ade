"""The compiled trust-region step of COBYLA (``trstlp.c``) and its binding.

scipy 1.17 runs COBYLA in pure Python (its PRIMA port, ``pyprima``), and
one function of it, the trust-region LP ``trstlp``, takes most of a Faro
solve: many small numpy calls per iteration, each dominated by Python
overhead.  ``trstlp.c`` computes the same step in C.  It does not do its
own sums: every ``np.dot``, ``@`` and ``np.linalg.lstsq`` of the reference
is a call into the BLAS and LAPACK that numpy bundles (``ddot``, ``dgemv``,
``dgemm`` and ``dgelsd``), through the table :func:`repro.native.blas`
shares between kernels, with numpy's memory layout, so each step has
pyprima's bits.

pyprima has no hook, so :func:`installed` swaps the kernel in as the
``trstlp`` global of ``scipy._lib.pyprima.cobyla.cobylb`` for the length of
one solve, and puts pyprima's function back afterwards;
:func:`repro.core.optimizer.solve_allocation` does that around every
``method="cobyla"`` solve, and no other caller of
``scipy.optimize.minimize`` sees the kernel.  The first such solve of a
process calls :func:`kernel`, which loads the kernel through
:func:`repro.native.load` and checks it once against
``trustregion.trstlp`` on a fixed corpus.  When it cannot load, COBYLA
runs scipy's own code, which gives the same bits.  Every cffi object lives
in this module.
"""

from __future__ import annotations

import contextlib
import functools
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro import native

__all__ = ["installed", "kernel"]

SOURCE = Path(__file__).with_name("trstlp.c")

_CDEF = native.BLAS_CDEF + """
int trstlp(const Blas *blas, int64_t num_vars, int64_t m, const double *A,
           const double *b, double delta, const double *g, double *d);
"""


@functools.cache
def kernel() -> Callable | None:
    """The compiled ``trstlp(A, b, delta, g)``, or ``None`` when it cannot load.

    Loaded once per process, on first use.
    """
    return native.load(
        "trstlp", SOURCE, _CDEF, _bind, _self_check,
        fallback="COBYLA runs scipy's trstlp",
    )


@contextlib.contextmanager
def installed() -> Iterator[None]:
    """Run the body with the kernel as pyprima's ``cobylb.trstlp``.

    A no-op when the kernel cannot load, or when something else has already
    replaced pyprima's function.  pyprima's own ``trstlp`` is back in place
    when the body ends, however it ends.
    """
    run = kernel()
    if run is None:
        yield
        return
    from scipy._lib.pyprima.cobyla import cobylb, trustregion

    if cobylb.trstlp is not trustregion.trstlp:
        yield
        return
    cobylb.trstlp = run
    try:
        yield
    finally:
        cobylb.trstlp = trustregion.trstlp


def _bind(ffi, library) -> Callable:
    """The kernel behind pyprima's ``trstlp`` signature, on numpy's BLAS."""
    try:
        from scipy._lib.pyprima.cobyla import cobylb, trustregion
        from scipy._lib.pyprima.common import consts, linalg
    except ImportError as exc:
        raise native.KernelUnavailable(f"scipy's COBYLA is not pyprima: {exc}") from exc

    if cobylb.trstlp is not trustregion.trstlp:
        raise native.KernelUnavailable(
            "scipy's cobylb.trstlp is not pyprima's trustregion.trstlp"
        )
    if linalg.USE_NAIVE_MATH or consts.DEBUGGING:
        raise native.KernelUnavailable(
            "pyprima runs its naive linear algebra or its debugging checks"
        )
    table = ffi.from_buffer("Blas *", native.blas())
    step = library.trstlp
    doubles = ffi.typeof("double[]")
    from_buffer = ffi.from_buffer

    def run(A, b, delta, g, reference=trustregion.trstlp):
        """pyprima's ``trstlp``.  Inputs of other shapes, and inputs on which
        the reference raises, go to ``reference``."""
        matrix = np.ascontiguousarray(A, dtype=float)
        rhs = np.ascontiguousarray(b, dtype=float)
        gradient = np.ascontiguousarray(g, dtype=float)
        if (
            matrix.ndim != 2
            or matrix.shape[0] < 1
            or rhs.shape != matrix.shape[1:]
            or gradient.shape != matrix.shape[:1]
        ):
            return reference(A, b, delta, g)
        num_vars, m = matrix.shape
        d = np.empty(num_vars)
        status = step(
            table, num_vars, m, from_buffer(doubles, matrix),
            from_buffer(doubles, rhs), float(delta),
            from_buffer(doubles, gradient), from_buffer(doubles, d),
        )
        if status:
            return reference(A, b, delta, g)
        return d

    return run


def _refuse(A, b, delta, g):
    raise native.KernelUnavailable("the load-time check reached a failure path")


def _self_check(run: Callable) -> None:
    """Raise unless ``run`` gives ``trustregion.trstlp``'s bytes on a fixed corpus.

    Between them the six inputs take both stages through adding a
    constraint with and without rank growth, exchanging and deleting active
    constraints, a rank-deficient least-squares solve, both one-sided
    Givens rotations and the rescaling of columns above 1e12.  About 15 ms,
    once per process.
    """
    from scipy._lib.pyprima.cobyla import trustregion

    for A, b, delta, g in _corpus():
        got = run(A, b, delta, g, reference=_refuse)
        if got.tobytes() != trustregion.trstlp(A, b, delta, g).tobytes():
            raise native.KernelUnavailable(
                "the load-time check disagrees with pyprima's trstlp"
            )


def _corpus() -> Iterator[tuple[np.ndarray, np.ndarray, float, np.ndarray]]:
    """The self-check's fixed inputs: Faro-shaped bound and capacity rows,
    random rows and parallel copies of the capacity rows, from an infeasible
    start, then from a feasible one with a column and ``g`` above 1e12."""
    rng = np.random.default_rng(3)
    for num_vars, delta in ((3, 1.0), (6, 2.0), (10, 0.5)):
        eye = np.eye(num_vars)
        capacity = rng.uniform(0.5, 2.0, (num_vars, 2))
        mixed = rng.standard_normal((num_vars, 2))
        A = np.hstack([-eye, eye, capacity, mixed, capacity * rng.uniform(0.5, 2.0, 2)])
        b = rng.uniform(-1.0, 1.0, A.shape[1])
        g = rng.standard_normal(num_vars)
        yield A, b, delta, g
        huge = A.copy()
        huge[:, -1] *= 1e14
        yield huge, np.abs(b) + 0.1, delta, g * 1e13
