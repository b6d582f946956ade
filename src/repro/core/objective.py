"""Faro's objective and constraints compiled (``objective.c``).

The compiled COBYLA driver (:mod:`repro.core.trstlp`) hands each point it
needs back to Python.  Answering in numpy takes two callbacks, ``fun`` of
:func:`repro.core.optimizer._negative_objective` and the slacks of
:func:`~repro.core.optimizer._constraint_functions`: about 30 numpy calls
on arrays of a few elements, whose call overhead is most of a solve.
``objective.c`` answers one request in one cffi call, with the numpy
reference's bits: ``f`` (when the driver asks for it) and every slack.

:func:`kernel` returns a :class:`Kernel`, and :meth:`Kernel.evaluator`
builds a problem's :class:`Evaluator` once per solve, which
:func:`repro.core.optimizer.solve_allocation` hands to
:meth:`repro.core.trstlp.Kernel.minimize` in place of the two callbacks.
The numpy objective stays the reference: the load-time check compares the
kernel with it byte for byte, it answers the driver when this kernel
cannot load, it runs every solve when the driver cannot load, and it is
the only objective of every other caller (integer rounding, the drop
refinement, greedy, pgd, ``de``, SLSQP).  Every cffi object lives in this
module.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Callable

import numpy as np

from repro import native
from repro.core import penalty

__all__ = ["Evaluator", "Kernel", "kernel"]

SOURCE = Path(__file__).with_name("objective.c")

_CDEF = native.BLAS_CDEF + """
typedef struct {
    const Blas *blas;
    int64_t n, kind, drops, relaxed;
    int64_t stride, grid_len, knots, steps;
    double gamma, cpus, mem, drop_max;
    const double *flat;
    const int64_t *offsets;
    const double *max_row_f;
    const int64_t *max_rows;
    const int64_t *mins;
    const double *grid;
    const double *cold_w, *cold_cur, *priorities, *cpu, *memory;
    const double *knot_avail, *knot_credit, *step_lowers, *step_credits;
    double *work;
    const double *z;
    double *f, *c;
    int64_t nfev;
} Problem;
void objective_evaluate(Problem *p, int code);
"""

#: ``objective.c``'s reduction for each objective: the weighted sum, the
#: negated spread, or the sum less ``gamma`` times the spread.
_KINDS = {"sum": 0, "penaltysum": 0, "fair": 1, "fairsum": 2, "penaltyfairsum": 2}

#: The problem's arrays the struct reads in place, with their C types.
_INPUTS = (
    ("flat", "_flat_tables", "double"),
    ("offsets", "_table_offsets", "int64_t"),
    ("max_row_f", "_max_row_f", "double"),
    ("max_rows", "max_replicas", "int64_t"),
    ("mins", "_mins_vec", "int64_t"),
    ("grid", "drop_grid", "double"),
    ("cold_w", "_cold_w", "double"),
    ("cold_cur", "_cold_cur", "double"),
    ("priorities", "_priorities_vec", "double"),
    ("cpu", "_cpu_vec", "double"),
    ("memory", "_mem_vec", "double"),
)

#: :mod:`repro.core.penalty`'s tables, which the struct reads in place too.
_PENALTY = (
    ("knot_avail", penalty._KNOT_AVAIL),
    ("knot_credit", penalty._KNOT_CREDIT),
    ("step_lowers", penalty._STEP_LOWERS),
    ("step_credits", penalty._STEP_CREDITS),
)

_DTYPES = {"double": np.float64, "int64_t": np.int64}


@functools.cache
def kernel() -> Kernel | None:
    """The compiled objective, or ``None`` when it cannot load.

    Loaded once per process, at the first COBYLA solve on the compiled
    driver.
    """
    return native.load(
        "objective", SOURCE, _CDEF, Kernel, _self_check,
        fallback="COBYLA evaluates Faro's objective in numpy",
    )


class Kernel:
    """``objective.c``, bound: one ``objective_evaluate`` call per request."""

    def __init__(self, ffi, library) -> None:
        self.ffi = ffi
        self.evaluate = library.objective_evaluate
        self.blas = ffi.from_buffer("Blas *", native.blas())

    def evaluator(self, problem) -> Evaluator:
        """``problem``'s view for one solve (see :class:`Evaluator`)."""
        return Evaluator(self, problem)


class Evaluator:
    """One solve's view of an :class:`~repro.core.optimizer.AllocationProblem`.

    Built from the arrays ``AllocationProblem.__init__`` builds and never
    replaces, so the kernel reads them in place; keep it in the solve's
    frame, never on the problem, which stays picklable.  Calling it with
    the driver's point, ``f`` and slack buffers points the view at them and
    returns the function the driver's loop calls with each request code:
    one cffi call that writes ``f`` (when asked) and the slacks.
    :attr:`nfev` counts the requests that asked for ``f``, the number of
    ``fun`` calls the numpy path would make.
    """

    def __init__(self, compiled: Kernel, problem) -> None:
        ffi = compiled.ffi
        n = problem.num_jobs
        objective = problem.objective
        self._ffi = ffi
        self._evaluate = compiled.evaluate
        #: The cffi buffers the struct points into, kept alive with it.
        self._buffers: list = []
        view = self._view = ffi.new("Problem *")
        view.blas = compiled.blas
        view.n = n
        view.kind = _KINDS[objective.name]
        view.drops = objective.uses_drops
        view.relaxed = bool(problem.relaxed)
        view.stride = problem._table_stride
        view.grid_len = len(problem.drop_grid)
        view.knots = len(penalty._KNOT_AVAIL)
        view.steps = len(penalty._STEP_LOWERS)
        view.gamma = float(objective.resolved_gamma(n))
        view.cpus = float(problem.capacity.cpus)
        view.mem = float(problem.capacity.mem)
        view.drop_max = float(problem.drop_grid[-1])
        for field, attribute, ctype in _INPUTS:
            setattr(view, field, self._buffer(getattr(problem, attribute), ctype))
        for field, table in _PENALTY:
            setattr(view, field, self._buffer(table, "double"))
        view.work = self._buffer(np.empty(2 * n), "double")
        self.size = n * (2 if objective.uses_drops else 1)
        self.m = 2 + 2 * self.size

    def _buffer(self, array: np.ndarray, ctype: str):
        array = np.ascontiguousarray(array, dtype=_DTYPES[ctype])
        buffer = self._ffi.from_buffer(f"{ctype}[]", array)
        self._buffers.append(buffer)
        return buffer

    def __call__(
        self, point: np.ndarray, f: np.ndarray, c: np.ndarray
    ) -> Callable[[int], None]:
        for name, array, size in (("point", point, self.size), ("f", f, 1), ("c", c, self.m)):
            if (
                array.shape != (size,)
                or array.dtype != np.float64
                or not array.flags.c_contiguous
            ):
                raise ValueError(
                    f"{name} must be a contiguous float64 vector of {size}, "
                    f"got {array.dtype} of shape {array.shape}"
                )
        view = self._view
        view.z = self._buffer(point, "double")
        view.f = self._buffer(f, "double")
        view.c = self._buffer(c, "double")
        return functools.partial(self._evaluate, view)

    @property
    def nfev(self) -> int:
        return int(self._view.nfev)


# ------------------------------------------------------------ load check

#: ``cobyla_resume``'s request for both ``f`` and the slacks.
_NEED_BOTH = 3


def _self_check(compiled: Kernel) -> None:
    """Raise unless ``compiled`` gives the numpy reference's bytes.

    Five problems (1, 7, 8, 9 and 130 jobs: numpy's three pairwise-sum
    branches and its one-element ``np.dot``) cover the five objectives,
    the relaxed and the step penalty and cold-start blending on and off,
    at points on integers, on drop knots, inside and across the box's
    edges, at +-REALMAX and at -0.0.  About 9 ms once per process, most of
    it building the problems' tables.
    """
    for problem, points in _check_cases():
        if not _same_answers(compiled, problem, points):
            raise native.KernelUnavailable(
                "the load-time check disagrees with Faro's numpy objective "
                f"({problem.objective.name}, {problem.num_jobs} jobs)"
            )


def _same_answers(compiled: Kernel, problem, points) -> bool:
    """Whether ``compiled`` writes the numpy objective's ``f`` and slacks,
    byte for byte, at every point."""
    from repro.core import optimizer

    fun, _ = optimizer._negative_objective(problem)
    slacks, m = optimizer._constraint_functions(problem)
    evaluator = compiled.evaluator(problem)
    point, f, c = np.empty(evaluator.size), np.empty(1), np.empty(m)
    answer = evaluator(point, f, c)
    for z in points:
        point[:] = z
        answer(_NEED_BOTH)
        # The slacks at +-REALMAX overflow, and numpy says so.
        with np.errstate(over="ignore", invalid="ignore"):
            expected_f = np.float64(fun(z.copy())).tobytes()
            expected_c = slacks(z.copy()).tobytes()
        if f.tobytes() != expected_f or c.tobytes() != expected_c:
            return False
    return True


def _check_cases():
    """``(problem, points)`` pairs for the load-time check.

    Tables come from the cheap ``upper`` latency model and a private cache
    that stores nothing, so the process-wide table cache never sees them.
    """
    from repro.core.objectives import make_objective
    from repro.core.optimizer import (
        AllocationProblem,
        ClusterCapacity,
        OptimizationJob,
        UtilityTableCache,
    )
    from repro.core.utility import SLO

    cache = UtilityTableCache(maxsize=0)
    rng = np.random.default_rng(11)
    # Rates up to ``top`` requests/second: above what six replicas serve
    # within the SLO, so the tables hold fractions, or (for the step
    # utility) a step within the table.
    for jobs, name, gamma, relaxed, alpha, cold, top in (
        (1, "penaltysum", None, True, 1.0, True, 60.0),
        (7, "fair", None, True, 0.5, True, 60.0),
        (8, "sum", None, True, 1.0, True, 60.0),
        (9, "penaltyfairsum", 3.0, False, None, False, 60.0),
        (130, "fairsum", None, True, None, True, 12.0),
    ):
        proc_time, slo = rng.uniform(0.15, 0.3, jobs), rng.uniform(0.2, 0.6, jobs)
        rates = rng.uniform(2.0, top, (jobs, 2))
        priority = rng.choice([1.0, 0.7, 2.9], jobs)
        current = rng.integers(0, 5, jobs)
        weight = np.where(np.arange(jobs) % 3 > 0, rng.uniform(0.2, 0.8, jobs), 0.0)
        specs = [
            OptimizationJob(
                name=f"j{i}",
                proc_time=float(proc_time[i]),
                slo=SLO(float(slo[i])),
                rates=tuple(rates[i]),
                priority=float(priority[i]),
                min_replicas=1 + i % 2,
                current_replicas=int(current[i]) if cold else None,
                coldstart_weight=float(weight[i]) if cold else 0.0,
            )
            for i in range(jobs)
        ]
        problem = AllocationProblem(
            specs, ClusterCapacity.of_replicas(3 * jobs),
            make_objective(name, gamma=gamma), relaxed=relaxed, alpha=alpha,
            latency_model="upper", table_cache=cache, max_replicas_per_job=6,
        )
        yield problem, list(_check_points(problem, rng))


def _check_points(problem, rng: np.random.Generator):
    """Points inside the box, on integers, on drop knots, across the
    box's edges, at -0.0 and at +-REALMAX."""
    n = problem.num_jobs
    lo, hi = problem._mins_vec.astype(float), problem._max_row_f
    grid = problem.drop_grid
    top = float(grid[-1])
    realmax = np.finfo(float).max
    replicas = (
        *(rng.uniform(lo, hi) for _ in range(4)),
        np.floor(rng.uniform(lo, hi + 1.0)),
        rng.uniform(-2.0, hi + 3.0),
        np.where(rng.random(n) < 0.5, -0.0, hi),
        rng.choice([realmax, -realmax, -0.0, 1.5], n),
    )
    drops = (
        *(rng.uniform(0.0, top, n) for _ in range(4)),
        rng.choice(grid, n),
        rng.uniform(-0.2, 1.3, n),
        np.where(rng.random(n) < 0.5, -0.0, top),
        rng.choice([realmax, -realmax, -0.0, 0.05], n),
    )
    for x, d in zip(replicas, drops):
        yield np.concatenate([x, d]) if problem.objective.uses_drops else x
