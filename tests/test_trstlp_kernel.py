"""COBYLA's compiled trust-region step must be pyprima's, bit for bit.

The kernel (``core/trstlp.c``, :mod:`repro.core.trstlp`) is checked byte
for byte against ``scipy._lib.pyprima.cobyla.trustregion.trstlp`` on random
inputs and on every input of two real Faro solves; whole COBYLA solves with
and without it must evaluate the same points and return the same
allocation.  Its installation as pyprima's ``cobylb.trstlp`` and its loader
are tested the way ``tests/test_queueing_vectorized.py`` tests the table
kernel's.
"""

import functools
import importlib.util
import shutil
import warnings

import numpy as np
import pytest
import scipy.optimize
from scipy._lib.pyprima.cobyla import cobylb, trustregion
from scipy._lib.pyprima.common import linalg

from repro import api, native
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
    run = trstlp.kernel()
    assert run is not None
    return run


def refuse(A, b, delta, g):
    raise AssertionError("the kernel handed these inputs back to pyprima")


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


def assert_same_step(run, A, b, delta, g):
    with np.errstate(all="ignore"):
        expected = trustregion.trstlp(A, b, delta, g)
    got = run(A, b, delta, g, reference=refuse)
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
        solves take is the kernel's step too."""
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
    """A COBYLA solve on the kernel is the solve on pyprima's own step."""

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
        problem = faro_problem(jobs, objective, binding)
        x0 = solve_allocation(problem, maxiter=40) if warm else None
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


class TestInstallation:
    """The kernel is pyprima's trstlp only inside ``solve_allocation``."""

    def test_installed_during_a_solve_and_removed_after(self, compiled, small_problem):
        seen = []
        evaluate = small_problem.evaluate

        def spying(replicas, drops):
            seen.append(cobylb.trstlp)
            return evaluate(replicas, drops)

        small_problem.evaluate = spying
        solve_allocation(small_problem)
        assert compiled in seen
        assert cobylb.trstlp is trustregion.trstlp

    def test_removed_after_an_objective_raises(self, compiled, small_problem):
        calls = []

        def failing(replicas, drops):
            calls.append(cobylb.trstlp)
            if len(calls) == 8:
                raise RuntimeError("objective failed mid-solve")
            return 0.0

        small_problem.evaluate = failing
        with pytest.raises(RuntimeError, match="mid-solve"):
            solve_allocation(small_problem)
        assert compiled in calls
        assert cobylb.trstlp is trustregion.trstlp

    def test_direct_scipy_callers_never_reach_the_kernel(self, compiled, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return compiled(*args, **kwargs)

        monkeypatch.setattr(trstlp, "kernel", lambda: counting)
        result = scipy.optimize.minimize(
            lambda x: (x[0] - 1.0) ** 2 + (x[1] + 0.5) ** 2,
            np.zeros(2),
            method="COBYLA",
            constraints=[{"type": "ineq", "fun": lambda x: 1.0 - x[0] - x[1]}],
        )
        assert result.nfev > 0 and not calls
        assert cobylb.trstlp is trustregion.trstlp

    def test_left_alone_when_pyprima_was_already_replaced(self, compiled, monkeypatch, small_problem):
        calls = []

        def wrapper(A, b, delta, g):
            calls.append(A.shape)
            return trustregion.trstlp(A, b, delta, g)

        monkeypatch.setattr(cobylb, "trstlp", wrapper)
        solve_allocation(small_problem)
        assert calls and cobylb.trstlp is wrapper


class TestKernelLoading:
    """The kernel loads where it can; where it cannot, pyprima's own trstlp
    runs with one warning and identical results."""

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
        assert "COBYLA runs scipy's trstlp" in messages[0]
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
