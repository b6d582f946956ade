"""COBYLA compiled (``trstlp.c``): scipy's pyprima driver and its trust-region step.

scipy 1.17 runs COBYLA in pure Python (its PRIMA port, ``pyprima``), and a
Faro solve spends most of its time in that Python: the driver ``cobylb``
with its simplex updates, the trust-region LP ``trstlp``, and the wrappers
scipy puts around every evaluation.  ``trstlp.c`` computes all of it in
C.  It does not do its own sums: every ``np.dot``, ``@``,
``np.linalg.lstsq`` and ``np.linalg.inv`` of the reference is a call into
the BLAS and LAPACK that numpy bundles (``ddot``, ``dgemv``, ``dgemm``,
``dgelsd`` and ``dgesv``), through the table :func:`repro.native.blas`
shares between kernels, with numpy's memory layout, so a solve has
scipy's bits.

:func:`kernel` returns a :class:`Kernel` with two entry points:

- :meth:`Kernel.minimize` is ``scipy.optimize.minimize(fun, x0,
  method="COBYLA", constraints=[{"type": "ineq", "fun": slacks}],
  options={"maxiter": ..., "rhobeg": ...})`` for that one call shape.  The
  C driver never calls back into Python: it hands each point it needs
  back to a short Python loop, which answers the request with one call
  (``f`` unless scipy's last-point cache would skip it, and the
  constraint values) and resumes the driver.  What answers is the
  ``evaluate`` the caller passes: Faro's compiled objective
  (:meth:`repro.core.objective.Kernel.evaluator`, one cffi call per
  request), or :func:`callbacks` of Python's ``fun`` and ``slacks``.
  :func:`repro.core.optimizer.solve_allocation` solves every
  ``method="cobyla"`` problem through it; no other caller of
  ``scipy.optimize.minimize`` sees it.
- :meth:`Kernel.trstlp` is pyprima's ``trstlp(A, b, delta, g)`` alone,
  for the checks.

The driver ports one scipy release (:data:`PORTED_SCIPY`): under any other
the kernel does not load, since a driver that tracks scipy's COBYLA only
as far as its checks reach could drift from it unseen.  The first such
solve of a process calls :func:`kernel`, which loads the kernel through
:func:`repro.native.load` and checks it once against pyprima (the step on
a fixed corpus, the simplex updates, one whole solve against scipy's).
When it cannot load, COBYLA runs scipy's own ``minimize``, which gives the
same bits.  Every cffi object lives in this module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro import native

__all__ = ["PORTED_SCIPY", "Kernel", "callbacks", "kernel"]

SOURCE = Path(__file__).with_name("trstlp.c")

_CDEF = native.BLAS_CDEF + """
typedef struct Driver Driver;
int trstlp(const Blas *blas, int64_t num_vars, int64_t m, const double *A,
           const double *b, double delta, const double *g, double *d);
Driver *cobyla_new(const Blas *blas, int64_t n, int64_t m, const double *x0,
                   const double *options, int64_t maxfun, int64_t maxfilt,
                   double *point, double *f, double *c, double *x);
int cobyla_resume(Driver *state);
void cobyla_free(Driver *state);
int64_t cobyla_findpole(int64_t n, double cpen, const double *cval,
                        const double *fval, double *phi);
int cobyla_updatepole(const Blas *blas, int64_t n, int64_t m, double cpen,
                      double *conmat, double *cval, double *fval, double *sim,
                      double *simi, int *info);
int cobyla_updatexfc(const Blas *blas, int64_t n, int64_t m, int64_t jdrop,
                     const double *constr, double cpen, double cstrv,
                     const double *d, double f, double *conmat, double *cval,
                     double *fval, double *sim, double *simi, int *info);
"""

#: The scipy release whose ``minimize(method="COBYLA")`` the driver ports:
#: its ``_minimize_cobyla``, ``ScalarFunction`` and pyprima's ``cobylb``.
PORTED_SCIPY = "1.17"

#: ``cobyla_resume``'s requests: evaluate ``fun``, the constraints, or both.
_NEED_F, _NEED_C = 1, 2

#: scipy's ``minimize(method="COBYLA")`` default ``tol``, pyprima's ``rhoend``.
_RHOEND = 1e-4


def callbacks(fun: Callable, slacks: Callable) -> Callable:
    """:meth:`Kernel.minimize`'s ``evaluate`` for Python callables.

    ``fun`` returns the objective and ``slacks`` the ``m`` constraint
    values; each sees the point in its own copy, in scipy's order, and
    ``fun`` is skipped where scipy's last-point cache skips it.
    """

    def bind(point: np.ndarray, f: np.ndarray, c: np.ndarray) -> Callable[[int], None]:
        def answer(code: int) -> None:
            if code & _NEED_F:
                f[0] = fun(point.copy())
            if code & _NEED_C:
                c[:] = slacks(point.copy())

        return answer

    return bind


def _failure(code: int) -> Exception:
    """The exception pyprima raises where the driver returned ``code``."""
    if code == -2:
        return np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    if code == -3:
        return AssertionError()
    if code == -4:
        return np.linalg.LinAlgError("Singular matrix")
    if code == -5:
        return ValueError(
            "zero-size array to reduction operation minimum which has no identity"
        )
    if code == -6:
        return UnboundLocalError(
            "cannot access local variable 'd' where it is not associated with a value"
        )
    return MemoryError("the COBYLA driver ran out of memory")


#: The driver's code for each failure of the C ``trstlp``.
_STEP_FAILURES = {1: -2, 2: -1, 3: -3}


@dataclass(frozen=True)
class Kernel:
    """The loaded kernel's entry points (see the module docstring)."""

    #: ``minimize(evaluate, x0, m, rhobeg=..., maxiter=...) -> (x, f)``
    minimize: Callable
    #: ``trstlp(A, b, delta, g) -> d``
    trstlp: Callable
    #: ``findpole``, ``updatepole`` and ``updatexfc`` alone, for the checks.
    findpole: Callable
    updatepole: Callable
    updatexfc: Callable


@functools.cache
def kernel() -> Kernel | None:
    """The compiled COBYLA, or ``None`` when it cannot load.

    Loaded once per process, on first use.
    """
    return native.load(
        "trstlp", SOURCE, _CDEF, _bind, _self_check,
        fallback="COBYLA runs scipy's minimize",
    )


def _options(n: int, m: int, rhobeg: float, maxfun: int) -> tuple[np.ndarray, int, int]:
    """pyprima's settings for scipy's call, through pyprima's own ``preproc``
    (so a ``maxfun`` below ``n + 2`` is raised, with its warning, as there).

    Returns ``rhobeg, rhoend, ctol, cweight, eta1, eta2, gamma1, gamma2,
    ftarget`` as one array, ``maxfun`` and ``maxfilt``.
    """
    from scipy._lib.pyprima.common import consts
    from scipy._lib.pyprima.common.preproc import preproc

    # pyprima's cobyla() defaults, as scipy leaves them.
    eta1 = consts.ETA1_DEFAULT
    eta2 = (eta1 + 2) / 3
    maxhist = max(maxfun, n + 2, consts.MAXFUN_DIM_DEFAULT * n)
    (
        _, maxfun, _, ftarget, rhobeg, rhoend, _, maxfilt, ctol, cweight,
        eta1, eta2, gamma1, gamma2, _,
    ) = preproc(
        "COBYLA", n, 0, maxfun, maxhist, -np.inf, rhobeg, _RHOEND,
        num_constraints=m, maxfilt=2000, ctol=np.sqrt(np.finfo(float).eps),
        cweight=consts.CWEIGHT_DEFAULT, eta1=eta1, eta2=eta2,
        gamma1=consts.GAMMA1_DEFAULT, gamma2=consts.GAMMA2_DEFAULT,
        is_constrained=m > 0,
    )
    settings = np.array(
        [rhobeg, rhoend, ctol, cweight, eta1, eta2, gamma1, gamma2, ftarget], dtype=float
    )
    return settings, int(maxfun), int(maxfilt)


def _bind(ffi, library) -> Kernel:
    """The kernel's entry points, on numpy's BLAS."""
    import scipy

    if scipy.__version__.split(".")[:2] != PORTED_SCIPY.split("."):
        raise native.KernelUnavailable(
            f"the driver ports scipy {PORTED_SCIPY}'s COBYLA, this is scipy {scipy.__version__}"
        )
    try:
        from scipy._lib.pyprima.common import consts, linalg
    except ImportError as exc:
        raise native.KernelUnavailable(f"scipy's COBYLA is not pyprima: {exc}") from exc

    if linalg.USE_NAIVE_MATH or consts.DEBUGGING:
        raise native.KernelUnavailable(
            "pyprima runs its naive linear algebra or its debugging checks"
        )
    table = ffi.from_buffer("Blas *", native.blas())
    lib = library
    doubles = ffi.typeof("double[]")
    from_buffer = ffi.from_buffer

    def minimize(evaluate, x0, m, *, rhobeg, maxiter):
        """scipy's COBYLA from ``x0`` subject to ``m`` constraints ``>= 0``: ``(x, f)``.

        ``evaluate(point, f, c)`` is called once with the driver's buffers
        and returns the function that answers its requests: called with a
        request code, it writes ``f[0]`` (when ``code & 1``) and the ``m``
        constraint values ``c`` (when ``code & 2``) at ``point``.
        :func:`callbacks` makes it from Python callables;
        :meth:`repro.core.objective.Kernel.evaluator` is the compiled one.
        """
        start = np.ascontiguousarray(np.atleast_1d(np.asarray(x0, dtype=float)))
        if start.ndim != 1:
            raise ValueError("'x0' must only have one dimension.")
        n = start.size
        settings, maxfun, maxfilt = _options(n, m, rhobeg, maxiter)
        point, f, c, x = np.empty(n), np.empty(1), np.empty(m), np.empty(n)
        answer = evaluate(point, f, c)
        state = lib.cobyla_new(
            table, n, m, from_buffer(doubles, start), from_buffer(doubles, settings),
            maxfun, maxfilt, from_buffer(doubles, point), from_buffer(doubles, f),
            from_buffer(doubles, c), from_buffer(doubles, x),
        )
        if state == ffi.NULL:
            raise _failure(-1)
        resume = lib.cobyla_resume
        try:
            while (code := resume(state)) > 0:
                answer(code)
        finally:
            lib.cobyla_free(state)
        if code < 0:
            raise _failure(code)
        return x, float(f[0])

    def run(A, b, delta, g):
        """pyprima's ``trstlp`` for ``A`` of n >= 1 rows and m columns, ``b``
        of m and ``g`` of n; it raises where pyprima's would."""
        matrix = np.ascontiguousarray(A, dtype=float)
        num_vars, m = matrix.shape
        d = np.empty(num_vars)
        status = lib.trstlp(
            table, num_vars, m, from_buffer(doubles, matrix),
            from_buffer(doubles, np.ascontiguousarray(b, dtype=float)), float(delta),
            from_buffer(doubles, np.ascontiguousarray(g, dtype=float)),
            from_buffer(doubles, d),
        )
        if status:
            raise _failure(_STEP_FAILURES[status])
        return d

    def findpole(cpen, cval, fval):
        phi = np.empty(len(fval))
        return int(lib.cobyla_findpole(
            len(fval) - 1, float(cpen), from_buffer(doubles, cval),
            from_buffer(doubles, fval), from_buffer(doubles, phi),
        ))

    def simplex(conmat, cval, fval, sim, simi):
        return (
            sim.shape[0], conmat.shape[0], from_buffer(doubles, conmat),
            from_buffer(doubles, cval), from_buffer(doubles, fval),
            from_buffer(doubles, sim), from_buffer(doubles, simi),
        )

    def updatepole(cpen, conmat, cval, fval, sim, simi):
        """In place on the (C-contiguous) arrays; returns pyprima's info."""
        info = ffi.new("int *")
        n, m, *arrays = simplex(conmat, cval, fval, sim, simi)
        status = lib.cobyla_updatepole(table, n, m, float(cpen), *arrays, info)
        if status:
            raise _failure(status)
        return info[0]

    def updatexfc(jdrop, constr, cpen, cstrv, d, f, conmat, cval, fval, sim, simi):
        """In place on the (C-contiguous) arrays; returns pyprima's info."""
        info = ffi.new("int *")
        n, m, *arrays = simplex(conmat, cval, fval, sim, simi)
        status = lib.cobyla_updatexfc(
            table, n, m, -1 if jdrop is None else int(jdrop),
            from_buffer(doubles, constr), float(cpen), float(cstrv),
            from_buffer(doubles, d), float(f), *arrays, info,
        )
        if status:
            raise _failure(status)
        return info[0]

    return Kernel(minimize, run, findpole, updatepole, updatexfc)


def _self_check(compiled: Kernel) -> None:
    """Raise unless the kernel gives pyprima's and scipy's bytes.

    Three parts, about 40 ms once per process: ``trstlp`` on a fixed
    corpus; ``findpole``, ``updatepole`` and ``updatexfc`` on fixed
    simplices (NaN merits, twelve variables so numpy's row-by-row sums
    differ from pairwise ones); and one small whole solve against scipy's
    ``minimize``, on the evaluated points, ``x``, ``f`` and the number of
    ``fun`` calls.  None of them makes pyprima raise, so a kernel that
    raises there disagrees too.
    """
    for matches, reference in (
        (_steps_match, "pyprima's trstlp"),
        (_updates_match, "pyprima's simplex updates"),
        (_solve_matches, "scipy's COBYLA"),
    ):
        try:
            agrees = matches(compiled)
        except (AssertionError, MemoryError, NameError, ValueError):
            agrees = False
        if not agrees:
            raise native.KernelUnavailable(f"the load-time check disagrees with {reference}")


def _steps_match(compiled: Kernel) -> bool:
    """``trstlp`` on :func:`_corpus` against pyprima's, byte for byte."""
    from scipy._lib.pyprima.cobyla import trustregion

    return all(
        compiled.trstlp(*case).tobytes() == trustregion.trstlp(*case).tobytes()
        for case in _corpus()
    )


def _corpus() -> Iterator[tuple[np.ndarray, np.ndarray, float, np.ndarray]]:
    """The step check's fixed inputs: Faro-shaped bound and capacity rows,
    random rows and parallel copies of the capacity rows, from an infeasible
    start, then from a feasible one with a column and ``g`` above 1e12.

    Between them they take both stages of ``trstlp`` through adding a
    constraint with and without rank growth, exchanging and deleting active
    constraints, a rank-deficient least-squares solve, both one-sided
    Givens rotations and the rescaling of columns above 1e12."""
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


def _simplex(rng: np.random.Generator, n: int, m: int) -> tuple[np.ndarray, ...]:
    """``conmat, cval, fval, sim, simi`` of a random, well-conditioned simplex."""
    sim = np.hstack([np.eye(n) + 0.3 * rng.standard_normal((n, n)), rng.standard_normal((n, 1))])
    simi = np.linalg.inv(sim[:, :n])
    conmat = rng.standard_normal((m, n + 1))
    cval = np.maximum(rng.standard_normal(n + 1), 0.0)
    fval = rng.standard_normal(n + 1)
    return conmat, cval, fval, sim, simi


def _updates_match(compiled: Kernel) -> bool:
    """findpole, updatepole and updatexfc against pyprima's, byte for byte."""
    from scipy._lib.pyprima.cobyla import update

    rng = np.random.default_rng(5)
    for cval, fval in (
        ([0.0, 1.0, 2.0, 0.5], [np.nan, 1.0, 0.0, 3.0]),
        ([1.0, np.nan, 0.0, 0.5], [0.5, 1.0, 0.0, 3.0]),
        ([0.0, 0.0, 1.0, 0.0], [2.0, -1.0, np.nan, 1.0]),
        ([2.0, 1.0, 0.0, 1.0], [0.0, 1.0, 2.0, 1.0]),
    ):
        cval, fval = np.array(cval), np.array(fval)
        if compiled.findpole(1.5, cval, fval) != update.findpole(1.5, cval, fval):
            return False
    n, m = 12, 5
    for jdrop in (None, 3, n):
        conmat, cval, fval, sim, simi = _simplex(rng, n, m)
        fval[4] = fval.min() - 1.0
        d = 0.5 * rng.standard_normal(n)
        constr, f, cstrv = rng.standard_normal(m), float(fval.min() - 2.0), 0.25
        ours = [a.copy() for a in (conmat, cval, fval, sim, simi)]
        if jdrop is None:
            theirs = update.updatepole(1.0, conmat, cval, fval, sim, simi)
            info = compiled.updatepole(1.0, *ours)
            expected = theirs[:5]
        else:
            theirs = update.updatexfc(jdrop, constr, 1.0, cstrv, d, f, conmat, cval, fval, sim, simi)
            info = compiled.updatexfc(jdrop, constr, 1.0, cstrv, d, f, *ours)
            sim_, simi_, fval_, conmat_, cval_, _ = theirs
            expected = (conmat_, cval_, fval_, sim_, simi_)
        if info != theirs[-1] or any(
            np.asarray(a).tobytes() != b.tobytes() for a, b in zip(expected, ours)
        ):
            return False
    return True


def _solve_matches(compiled: Kernel) -> bool:
    """One small Faro-shaped solve, on the kernel and on scipy's ``minimize``."""
    import scipy.optimize

    weights = np.array([1.0, 2.5])

    def slacks(z):
        return np.concatenate([[3.0 - z.sum()], z - 0.5, 3.0 - z])

    def run(solve):
        points = []

        def fun(z):
            points.append(z.tobytes())
            return -float(weights @ np.log1p(z))

        x, f = solve(fun)
        return points, np.asarray(x, dtype=float).tobytes(), float(f)

    def reference(fun):
        result = scipy.optimize.minimize(
            fun, np.ones(2), method="COBYLA",
            constraints=[{"type": "ineq", "fun": slacks}],
            options={"maxiter": 12, "rhobeg": 2.0},
        )
        return result.x, result.fun

    return run(lambda fun: compiled.minimize(
        callbacks(fun, slacks), np.ones(2), 5, rhobeg=2.0, maxiter=12,
    )) == run(reference)
