"""COBYLA on the compiled driver must be scipy's COBYLA, bit for bit.

The kernel (``core/trstlp.c``, :mod:`repro.core.trstlp`) runs pyprima's
whole ``cobylb`` driver and its trust-region step in C.  The step is
checked byte for byte against
``scipy._lib.pyprima.cobyla.trustregion.trstlp`` on random inputs and on
every input of two real Faro solves; the simplex updates against pyprima's
on crafted simplices; and whole solves against
``scipy.optimize.minimize(method="COBYLA")`` on a seeded random corpus and
on every solve of a paper run: the same points evaluated in the same
order, the same ``x``, ``fun`` and number of ``fun`` calls.  Its loader is
tested the way ``tests/test_queueing_vectorized.py`` tests the table
kernel's, with mutants the load-time check must refuse.
"""

import dataclasses
import functools
import importlib.util
import shutil
import subprocess
import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy._lib.pyprima.cobyla import cobylb, trustregion, update
from scipy._lib.pyprima.common import linalg

from repro import api, native
from repro.core import objective as compiled_objective
from repro.core import optimizer, trstlp
from repro.core.objectives import make_objective
from repro.core.optimizer import (
    AllocationProblem,
    ClusterCapacity,
    OptimizationJob,
    solve_allocation,
)
from repro.core.utility import SLO
from tests.test_backend_differential import PRE_REFACTOR_DIGESTS, digest, tiny_spec


@pytest.fixture
def compiled():
    """The kernel; skip where it cannot be built, fail where it can but did not load."""
    if shutil.which("cc") is None or importlib.util.find_spec("cffi") is None:
        pytest.skip("needs a C compiler (cc) and cffi")
    if scipy.__version__.split(".")[:2] != trstlp.PORTED_SCIPY.split("."):
        pytest.skip(f"the driver ports scipy {trstlp.PORTED_SCIPY}'s COBYLA")
    loaded = trstlp.kernel()
    assert loaded is not None
    return loaded


def random_inputs(rng):
    """``(A, b, delta, g)``: 1-40 variables and 0 to 4n + 2 constraints.

    Faro-shaped bound and capacity rows or dense random ones, with zero,
    duplicated and huge (> 1e12) columns, now and then a tiny scale, NaN
    or inf in ``b`` (and, more rarely, in ``A`` and ``g``), and ``delta``
    from 1e-8 to 1e3.
    """
    n = int(rng.integers(1, 41))
    m = int(rng.integers(0, 4 * n + 3))
    if rng.random() < 0.4:
        eye = np.eye(n)
        extra = max(m - 2 * n, 0)
        A = np.hstack([-eye, eye, rng.uniform(0.0, 2.0, (n, extra))])[:, :m]
        b = rng.uniform(-3.0, 3.0, A.shape[1])
        b[rng.random(A.shape[1]) < 0.2] = 0.0
    else:
        A = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-2, 3)
        b = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 2)
    m = A.shape[1]
    if m and rng.random() < 0.3:
        A[:, rng.integers(0, m)] = 0.0
    if m > 1 and rng.random() < 0.3:
        A[:, rng.integers(0, m)] = A[:, rng.integers(0, m)]
    if m and rng.random() < 0.1:
        A[:, rng.integers(0, m)] *= 1e14
    if rng.random() < 0.03:
        A *= 1e-160
    if m and rng.random() < 0.05:
        b[rng.integers(0, m)] = np.nan
    if m and rng.random() < 0.05:
        b[rng.integers(0, m)] = np.inf * rng.choice([-1.0, 1.0])
    if m and rng.random() < 0.03:
        A[rng.integers(0, n), rng.integers(0, m)] = rng.choice([np.nan, np.inf, -np.inf])
    g = rng.standard_normal(n)
    if rng.random() < 0.02:
        g[rng.integers(0, n)] = rng.choice([np.nan, np.inf])
    return A, b, float(10.0 ** rng.uniform(-8, 3)), g


def assert_same_step(compiled, A, b, delta, g):
    with np.errstate(all="ignore"):
        expected = trustregion.trstlp(A, b, delta, g)
    got = compiled.trstlp(A, b, delta, g)
    assert got.tobytes() == expected.tobytes(), (A.shape, delta)


class TestKernelMatchesPyprima:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_inputs(self, compiled, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            assert_same_step(compiled, *random_inputs(rng))

    @pytest.mark.parametrize(
        "case",
        ["one-variable", "no-constraints", "all-nan", "feasible", "huge", "tiny-delta"],
    )
    def test_edge_inputs(self, compiled, case):
        rng = np.random.default_rng(7)
        n = 1 if case == "one-variable" else 5
        A = np.hstack([-np.eye(n), np.eye(n), rng.uniform(0.5, 2.0, (n, 2))])
        b = rng.uniform(-1.0, 1.0, A.shape[1])
        delta, g = 2.0, rng.standard_normal(n)
        if case == "no-constraints":
            A, b = A[:, :0], b[:0]
        elif case == "all-nan":
            b[:] = np.nan
        elif case == "feasible":
            b = np.abs(b) + 0.1
        elif case == "huge":
            A[:, -1] *= 1e15
            g *= 1e13
        elif case == "tiny-delta":
            delta = 1e-8
        assert_same_step(compiled, A, b, delta, g)

    @pytest.mark.parametrize(
        "policy, shape",
        [("faro-fairsum", (10, 22)), ("faro-penaltyfairsum", (20, 42))],
    )
    def test_every_step_of_the_paper_so_cluster(self, compiled, monkeypatch, policy, shape):
        """``headline`` solves the SO cluster with faro-fairsum and
        ``serve-stream`` with faro-penaltyfairsum: every step their first
        solves take is the kernel's step too.  The driver is forced off, so
        scipy's COBYLA runs and hands its steps to the recorder."""
        shapes = []

        def compare(A, b, delta, g):
            assert_same_step(compiled, A, b, delta, g)
            shapes.append(A.shape)
            return trustregion.trstlp(A, b, delta, g)

        spec = api.ExperimentSpec.compare(
            "so-steps",
            [api.ScenarioSpec(kind="paper", params={"size": "SO", "duration_minutes": 5})],
            [policy],
            simulator="request",
            trials=1,
            seed=0,
            predictor_profile="fast",
        )
        monkeypatch.setattr(cobylb, "trstlp", compare)
        monkeypatch.setattr(trstlp, "kernel", lambda: None)
        api.run(spec)
        assert len(shapes) > 100 and set(shapes) == {shape}


def faro_problem(jobs: int, objective: str, binding: bool) -> AllocationProblem:
    rng = np.random.default_rng(jobs)
    specs = [
        OptimizationJob(
            name=f"j{i}",
            proc_time=0.18,
            slo=SLO(0.72),
            rates=tuple(np.maximum(rng.normal(base, base * 0.2, 140), 0.0)),
        )
        for i, base in enumerate(rng.uniform(5.0, 40.0, jobs))
    ]
    replicas = int(1.5 * jobs) if binding else 10 * jobs
    return AllocationProblem(
        specs, ClusterCapacity.of_replicas(replicas), make_objective(objective)
    )


class TestWholeSolve:
    """``solve_allocation`` on the driver is ``solve_allocation`` on scipy's COBYLA."""

    @pytest.mark.parametrize(
        "jobs, objective, binding, warm, maxiter",
        [
            (2, "fairsum", False, False, 1000),
            (2, "penaltyfairsum", True, True, 1000),
            (5, "fairsum", True, True, 1000),
            (5, "penaltyfairsum", False, False, 1000),
            (10, "fairsum", True, False, 1000),
            (10, "penaltyfairsum", True, True, 300),
            (20, "fairsum", False, True, 300),
            (20, "penaltyfairsum", True, False, 120),
        ],
    )
    def test_same_points_and_allocation(
        self, compiled, monkeypatch, jobs, objective, binding, warm, maxiter
    ):
        """On the Python objective, so ``fun`` sees every point; the
        compiled objective's points are ``TestWholeSolves``' in
        ``tests/test_objective_kernel.py``."""
        problem = faro_problem(jobs, objective, binding)
        x0 = solve_allocation(problem, maxiter=40) if warm else None
        monkeypatch.setattr(compiled_objective, "kernel", lambda: None)
        points: list[bytes] = []
        negative_objective = optimizer._negative_objective

        def recording(problem):
            fun, counter = negative_objective(problem)

            def record(z):
                points.append(np.asarray(z).tobytes())
                return fun(z)

            return record, counter

        monkeypatch.setattr(optimizer, "_negative_objective", recording)
        fast = solve_allocation(problem, x0=x0, maxiter=maxiter)
        fast_points = points[:]
        points.clear()
        monkeypatch.setattr(trstlp, "kernel", lambda: None)
        reference = solve_allocation(problem, x0=x0, maxiter=maxiter)
        assert fast_points == points and len(points) == fast.nfev
        assert fast.replicas.tobytes() == reference.replicas.tobytes()
        assert fast.drops.tobytes() == reference.drops.tobytes()
        assert fast.objective_value == reference.objective_value
        assert fast.solver_value == reference.solver_value
        assert (fast.nfev, fast.post_nfev) == (reference.nfev, reference.post_nfev)


def random_problem(rng, drops: bool, binding: bool, jobs: int | None = None) -> AllocationProblem:
    """1-20 jobs of drawn load, with or without the drop axis, and a
    replica budget that binds or leaves room."""
    jobs = int(rng.integers(1, 21)) if jobs is None else jobs
    specs = [
        OptimizationJob(
            name=f"j{i}",
            proc_time=float(rng.uniform(0.05, 0.3)),
            slo=SLO(float(rng.uniform(0.3, 1.2))),
            rates=tuple(np.maximum(rng.normal(base, base * 0.3, 60), 0.0)),
            min_replicas=int(rng.integers(1, 3)),
        )
        for i, base in enumerate(rng.uniform(2.0, 40.0, jobs))
    ]
    objective = rng.choice(["penaltysum", "penaltyfairsum"] if drops else ["sum", "fair", "fairsum"])
    replicas = int(rng.uniform(1.2, 2.0) * 2 * jobs) if binding else 12 * jobs
    return AllocationProblem(specs, ClusterCapacity.of_replicas(replicas), make_objective(objective))


def solve_both(compiled, problem, x0, maxiter):
    """One COBYLA solve on the driver, then on scipy's ``minimize``.

    Each side gives every call it made, in order (``"f"`` or ``"c"`` with
    the point's bytes), ``x``'s bytes, ``fun`` and the warnings it raised.
    """
    fun, _ = optimizer._negative_objective(problem)
    slacks, size = optimizer._constraint_functions(problem)

    def run(solve):
        calls = []

        def recording_fun(z):
            calls.append(("f", z.tobytes()))
            return fun(z)

        def recording_slacks(z):
            calls.append(("c", z.tobytes()))
            return slacks(z)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x, f = solve(recording_fun, recording_slacks)
        said = [(w.category, str(w.message)) for w in caught]
        return calls, np.asarray(x, dtype=float).tobytes(), float(f), said

    def reference(f, c):
        result = scipy.optimize.minimize(
            f, x0, method="COBYLA", constraints=[{"type": "ineq", "fun": c}],
            options={"maxiter": maxiter, "rhobeg": 2.0},
        )
        return result.x, result.fun

    return (
        run(lambda f, c: compiled.minimize(
            trstlp.callbacks(f, c), x0, size, rhobeg=2.0, maxiter=maxiter
        )),
        run(reference),
    )


class TestWholeSolveCorpus:
    """The driver against ``scipy.optimize.minimize(method="COBYLA")``."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_corpus_matches_scipy(self, compiled, seed):
        """2-40 variables; the drop axis, a binding budget and a warm start
        each on or off by seed; ``maxiter`` now and then below ``n + 2``."""
        rng = np.random.default_rng(100 + seed)
        drops, binding, warm = seed % 2, (seed // 2) % 2, (seed // 4) % 2
        for _ in range(2):
            problem = random_problem(rng, bool(drops), bool(binding))
            n = problem.num_jobs * (2 if drops else 1)
            if warm:
                with warnings.catch_warnings():
                    # scipy's MAXFUN warning when n + 2 > 30
                    warnings.simplefilter("ignore", UserWarning)
                    start = solve_allocation(problem, maxiter=30)
                x0 = optimizer.warm_start_vector(problem, start)
            else:
                x0 = optimizer._default_start(problem)
            maxiter = int(rng.choice([n + 1, 2 * n + 8, 150]))
            ours, theirs = solve_both(compiled, problem, x0, maxiter)
            assert ours == theirs, (seed, n, maxiter)
            assert sum(kind == "f" for kind, _ in ours[0]) > n

    @pytest.mark.parametrize("binding", [False, True])
    def test_forty_variables_match_scipy(self, compiled, binding):
        """The largest Faro shape: 20 jobs along the drop axis."""
        rng = np.random.default_rng(7)
        problem = random_problem(rng, True, binding, jobs=20)
        ours, theirs = solve_both(compiled, problem, optimizer._default_start(problem), 150)
        assert ours == theirs

    @pytest.mark.parametrize("policy", ["faro-fairsum", "faro-penaltyfairsum"])
    def test_every_solve_of_a_paper_so_run(self, compiled, monkeypatch, policy):
        """Every solve of a five-minute SO run, each on both sides with the
        Python objective, and then as the run solves it, on the compiled
        objective where it loads."""
        checked = []
        latest = {}
        negative_objective = optimizer._negative_objective

        def capture(problem):
            fun, counter = negative_objective(problem)
            latest["fun"], latest["slacks"] = fun, optimizer._constraint_functions(problem)[0]
            return fun, counter

        monkeypatch.setattr(optimizer, "_negative_objective", capture)

        def both(evaluate, x0, m, *, rhobeg, maxiter):
            fun, slacks = latest["fun"], latest["slacks"]

            def run(solve):
                calls = []

                def recording(z):
                    calls.append(z.tobytes())
                    return fun(z)

                x, f = solve(recording)
                return calls, np.asarray(x, dtype=float), float(f)

            def reference(f):
                result = scipy.optimize.minimize(
                    f, x0, method="COBYLA", constraints=[{"type": "ineq", "fun": slacks}],
                    options={"maxiter": maxiter, "rhobeg": rhobeg},
                )
                return result.x, result.fun

            ours = run(lambda f: compiled.minimize(
                trstlp.callbacks(f, slacks), x0, m, rhobeg=rhobeg, maxiter=maxiter
            ))
            theirs = run(reference)
            assert ours[0] == theirs[0] and ours[2] == theirs[2]
            assert ours[1].tobytes() == theirs[1].tobytes()
            checked.append(len(ours[0]))
            x, f = compiled.minimize(evaluate, x0, m, rhobeg=rhobeg, maxiter=maxiter)
            assert np.asarray(x).tobytes() == ours[1].tobytes() and f == ours[2]
            return x, f

        monkeypatch.setattr(
            trstlp, "kernel", lambda: dataclasses.replace(compiled, minimize=both)
        )
        spec = api.ExperimentSpec.compare(
            "so-solves",
            [api.ScenarioSpec(kind="paper", params={"size": "SO", "duration_minutes": 5})],
            [policy],
            simulator="request",
            trials=1,
            seed=0,
            predictor_profile="fast",
        )
        api.run(spec)
        assert checked and min(checked) > 10

    def test_an_objective_that_raises_propagates(self, compiled, small_problem, monkeypatch):
        """On the Python objective, which the driver calls back."""
        monkeypatch.setattr(compiled_objective, "kernel", lambda: None)
        calls = []

        def failing(replicas, drops):
            calls.append(1)
            if len(calls) == 8:
                raise RuntimeError("objective failed mid-solve")
            return 0.0

        small_problem.evaluate = failing
        with pytest.raises(RuntimeError, match="mid-solve"):
            solve_allocation(small_problem)
        assert len(calls) == 8


def damaged_simplex(rng, n: int, m: int, damage: float):
    """``conmat, cval, fval, sim, simi`` whose ``simi`` is off the inverse
    by ``damage``, and a vertex better than the pole."""
    sim = np.hstack([np.eye(n) + 0.3 * rng.standard_normal((n, n)), rng.standard_normal((n, 1))])
    simi = np.linalg.inv(sim[:, :n]) + damage * rng.standard_normal((n, n))
    conmat = rng.standard_normal((m, n + 1))
    cval = np.maximum(rng.standard_normal(n + 1), 0.0)
    fval = rng.standard_normal(n + 1)
    fval[int(rng.integers(0, n))] = fval.min() - 1.0
    return conmat, cval, fval, sim, simi


class TestSimplexUpdates:
    """updatepole and updatexfc against pyprima's, on simplices no e2e
    solve reaches: a damaged ``simi`` that takes the ``inv`` branch,
    replacing the pole itself, and singular and near-singular vertices."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("damage", [0.0, 0.2, 5.0])
    def test_updates_match_pyprima(self, compiled, seed, damage):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 12))
        for jdrop in (None, int(rng.integers(0, n)), n):
            arrays = damaged_simplex(rng, n, m, damage)
            d = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 1)
            if rng.random() < 0.3:
                d = -arrays[3][:, 0] * (1 + 1e-14)  # a near-singular vertex
            constr, f, cstrv = rng.standard_normal(m), float(rng.standard_normal()), 0.5
            ours = [a.copy() for a in arrays]
            with np.errstate(all="ignore"):
                if jdrop is None:
                    *theirs, info = update.updatepole(1.3, *arrays)
                    got = compiled.updatepole(1.3, *ours)
                else:
                    sim, simi, fval, conmat, cval, info = update.updatexfc(
                        jdrop, constr, 1.3, cstrv, d, f, *arrays
                    )
                    theirs = [conmat, cval, fval, sim, simi]
                    got = compiled.updatexfc(jdrop, constr, 1.3, cstrv, d, f, *ours)
            assert got == info
            for expected, actual in zip(theirs, ours):
                assert np.asarray(expected).tobytes() == actual.tobytes(), (n, jdrop, damage)

    @pytest.mark.parametrize("seed", range(4))
    def test_findpole_matches_pyprima_with_nan_merits(self, compiled, seed):
        """Python's ``min`` in ``findpole`` skips a NaN after the first merit."""
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            cval = np.maximum(rng.standard_normal(n + 1), 0.0)
            fval = rng.standard_normal(n + 1)
            for values in (cval, fval):
                values[rng.random(n + 1) < 0.2] = np.nan
            cpen = float(rng.uniform(0.0, 3.0))
            with np.errstate(all="ignore"):
                expected = update.findpole(cpen, cval, fval)
            assert compiled.findpole(cpen, cval, fval) == expected

    def test_a_singular_simplex_raises_like_numpy(self, compiled):
        rng = np.random.default_rng(1)
        conmat, cval, fval, sim, simi = damaged_simplex(rng, 4, 3, 1.0)
        sim[:, 1] = sim[:, 0]
        ours = [a.copy() for a in (conmat, cval, fval, sim, simi)]
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            update.updatepole(1.0, conmat, cval, fval, sim, simi)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            compiled.updatepole(1.0, *ours)


class TestInstallation:
    """The driver runs only inside ``solve_allocation``."""

    def test_direct_scipy_callers_never_reach_the_kernel(self, compiled, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args))
            return compiled.minimize(*args, **kwargs)

        monkeypatch.setattr(
            trstlp, "kernel", lambda: dataclasses.replace(compiled, minimize=counting)
        )
        result = scipy.optimize.minimize(
            lambda x: (x[0] - 1.0) ** 2 + (x[1] + 0.5) ** 2,
            np.zeros(2),
            method="COBYLA",
            constraints=[{"type": "ineq", "fun": lambda x: 1.0 - x[0] - x[1]}],
        )
        assert result.nfev > 0 and not calls
        assert cobylb.trstlp is trustregion.trstlp


MUTANTS = {
    # Python's min(phi) in findpole, which skips a NaN after the first
    # entry, replaced by a NaN-propagating minimum.
    "findpole-fmin": (
        "phimin = py_min_of(phi, n + 1);",
        "phimin = phi[0];\n    for (int64_t j = 1; j <= n; j++)\n"
        "        phimin = np_minimum(phimin, phi[j]);",
        "pyprima's simplex updates",
    ),
    # numpy sums simi over axis 0 row by row; a pairwise sum down each
    # column rounds differently from eight rows on.  (distsq holds n + 1
    # and is free inside updatepole and updatexfc.)
    "pairwise-column-sums": (
        "np_sum_rows(S->simi, n, n, n, s->colsum);",
        "for (int64_t j = 0; j < n; j++) {\n"
        "            for (int64_t i = 0; i < n; i++)\n"
        "                s->distsq[i] = S->simi[i * n + j];\n"
        "            s->colsum[j] = np_sum(s->distsq, n);\n"
        "        }",
        "pyprima's simplex updates",
    ),
    # scipy's ScalarFunction does not call fun again at its last point.
    "no-last-point-cache": (
        "s->pending = same ? NEED_C : NEED_F | NEED_C;",
        "s->pending = NEED_F | NEED_C;",
        "scipy's COBYLA",
    ),
    # A driver that raises where scipy does not (here LinAlgError from the
    # first inverse) is refused at load, not raised from the first solve.
    "inverse-fails": (
        "if (info != 0)\n        return FAIL_SINGULAR;",
        "if (info == 0)\n        return FAIL_SINGULAR;",
        "scipy's COBYLA",
    ),
}


class TestKernelLoading:
    """The kernel loads where it can; where it cannot, scipy's COBYLA runs
    with one warning and identical results."""

    def test_kernel_loads_where_it_can_be_built(self, compiled):
        assert native.kernels()["trstlp"] == "c"

    def test_broken_source_falls_back_to_pyprima(self, compiled, tmp_path, monkeypatch):
        broken = tmp_path / "trstlp.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(trstlp, "SOURCE", broken)
        trstlp.kernel.cache_clear()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = api.run(tiny_spec("tiny-request", "request"))
        finally:
            trstlp.kernel.cache_clear()
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1
        assert "cc failed to compile trstlp.c" in messages[0]
        assert "COBYLA runs scipy's minimize" in messages[0]
        for per_policy in report.stats.values():
            for result in per_policy["faro-fairsum"].results:
                assert result.metadata["kernels"]["trstlp"] == "python"
        assert digest(report) == PRE_REFACTOR_DIGESTS["tiny-request"]
        assert cobylb.trstlp is trustregion.trstlp

    def test_kernel_summing_left_to_right_is_refused(self, compiled, tmp_path, monkeypatch):
        # numpy's dot products do not sum left to right; a kernel that does
        # rounds differently somewhere in the self-check's corpus.
        source = trstlp.SOURCE.read_text()
        call = "sum += blas->ddot(n, x, incx, y, incy);"
        assert source.count(call) == 1
        naive = "for (int64_t i = 0; i < n; i++) sum += x[i * incx] * y[i * incy];"
        mutant = tmp_path / "trstlp.c"
        mutant.write_text(source.replace(call, naive))
        monkeypatch.setattr(trstlp, "SOURCE", mutant)
        trstlp.kernel.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="disagrees with pyprima's trstlp"):
                assert trstlp.kernel() is None
            assert native.kernels()["trstlp"] == "python"
        finally:
            trstlp.kernel.cache_clear()

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_driver_mutant_is_refused(self, compiled, tmp_path, monkeypatch, name):
        original, replacement, part = MUTANTS[name]
        source = trstlp.SOURCE.read_text()
        assert source.count(original) >= 1
        mutant = tmp_path / "trstlp.c"
        mutant.write_text(source.replace(original, replacement))
        monkeypatch.setattr(trstlp, "SOURCE", mutant)
        trstlp.kernel.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match=f"disagrees with {part}"):
                assert trstlp.kernel() is None
            assert native.kernels()["trstlp"] == "python"
        finally:
            trstlp.kernel.cache_clear()

    def test_another_scipy_release_is_refused(self, compiled, monkeypatch):
        """The driver ports one scipy's COBYLA; under another, scipy's runs."""
        monkeypatch.setattr(scipy, "__version__", "1.18.0")
        trstlp.kernel.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="ports scipy 1.17's COBYLA, this is scipy 1.18.0"):
                assert trstlp.kernel() is None
            assert native.kernels()["trstlp"] == "python"
        finally:
            trstlp.kernel.cache_clear()

    def test_source_compiles_without_uninitialized_warnings(self, compiled, tmp_path):
        """Each resume of the driver is a new C frame that jumps to a label;
        a local read there before it is set again would be undefined."""
        flags = ["-Wall", "-Werror=uninitialized", "-Werror=maybe-uninitialized"]
        result = subprocess.run(
            ["cc", *native.CFLAGS, *flags, "-o", str(tmp_path / "trstlp.so"), str(trstlp.SOURCE)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0 and "warning" not in result.stderr, result.stderr

    def test_naive_pyprima_math_is_refused(self, compiled, monkeypatch):
        monkeypatch.setattr(linalg, "USE_NAIVE_MATH", True)
        trstlp.kernel.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="naive linear algebra"):
                assert trstlp.kernel() is None
        finally:
            trstlp.kernel.cache_clear()

    def test_reading_the_metadata_never_loads(self, monkeypatch):
        fresh = functools.cache(trstlp.kernel.__wrapped__)
        monkeypatch.setattr(trstlp, "kernel", fresh)
        assert native.kernels()["trstlp"] is None
        assert fresh.cache_info().currsize == 0


class TestPlatformRecord:
    def test_recorded_in_metadata_and_kept_out_of_reports(self):
        report = api.run(tiny_spec("tiny-flow", "flow"))
        for per_policy in report.stats.values():
            for trial in per_policy.values():
                for result in trial.results:
                    assert result.metadata["platform"] == native.host()
        assert set(native.host()) == {"openblas_core", "numpy_targets", "glibc"}
        assert digest(report) == PRE_REFACTOR_DIGESTS["tiny-flow"]
