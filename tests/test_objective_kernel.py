"""Faro's objective on the compiled kernel must be the numpy objective, bit for bit.

The kernel (``core/objective.c``, :mod:`repro.core.objective`) answers each
request of the compiled COBYLA driver with ``f`` and the constraint
slacks.  It is checked point by point against
``optimizer._negative_objective`` and ``optimizer._constraint_functions``
on drawn problems and points, by bytes; whole solves and whole runs on it
against the numpy objective and against scipy's own COBYLA; and its loader
the way ``tests/test_trstlp_kernel.py`` tests the driver's, with mutants
the load-time check must refuse.
"""

import functools
import importlib.util
import shutil
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, native
from repro.core import objective, optimizer, trstlp
from repro.core.objectives import OBJECTIVE_NAMES, make_objective
from repro.core.optimizer import (
    DEFAULT_DROP_GRID,
    AllocationProblem,
    ClusterCapacity,
    OptimizationJob,
    UtilityTableCache,
    solve_allocation,
)
from repro.core.utility import SLO
from tests.test_backend_differential import PRE_REFACTOR_DIGESTS, digest, tiny_spec
from tests.test_trstlp_kernel import random_problem

REALMAX = float(np.finfo(float).max)

#: ``cobyla_resume``'s request for both ``f`` and the slacks.
BOTH = 3


@pytest.fixture(scope="module")
def compiled():
    """The kernel; skip where it cannot be built, fail where it can but did not load."""
    if shutil.which("cc") is None or importlib.util.find_spec("cffi") is None:
        pytest.skip("needs a C compiler (cc) and cffi")
    loaded = objective.kernel()
    assert loaded is not None
    return loaded


@pytest.fixture(scope="module")
def driver():
    """The compiled COBYLA driver, which the whole solves run on."""
    if scipy.__version__.split(".")[:2] != trstlp.PORTED_SCIPY.split("."):
        pytest.skip(f"the driver ports scipy {trstlp.PORTED_SCIPY}'s COBYLA")
    loaded = trstlp.kernel()
    assert loaded is not None
    return loaded


def assert_same_answers(compiled, problem, points):
    """``f`` and the slacks at each point, kernel against numpy, by bytes."""
    fun, _ = optimizer._negative_objective(problem)
    slacks, m = optimizer._constraint_functions(problem)
    evaluator = compiled.evaluator(problem)
    point, f, c = np.empty(evaluator.size), np.empty(1), np.empty(m)
    answer = evaluator(point, f, c)
    for z in points:
        z = np.asarray(z, dtype=float)
        point[:] = z
        answer(BOTH)
        with np.errstate(all="ignore"):
            expected_f = np.float64(fun(z.copy()))
            expected_c = slacks(z.copy())
        assert f.tobytes() == expected_f.tobytes(), (z, f[0], expected_f)
        assert c.tobytes() == expected_c.tobytes(), z
    assert evaluator.nfev == len(points)


def build(
    jobs: int,
    name: str,
    rng: np.random.Generator,
    *,
    gamma=None,
    relaxed=True,
    alpha=1.0,
    latency_model="mdc",
    cold=True,
    drop_grid=DEFAULT_DROP_GRID,
    cap=8,
) -> AllocationProblem:
    """A problem of ``jobs`` drawn jobs: priorities other than 1, minimums
    above 1, and (with ``cold``) cold-start weights with current replicas
    from 0 to the cap."""
    specs = [
        OptimizationJob(
            name=f"j{i}",
            proc_time=float(rng.uniform(0.05, 0.3)),
            slo=SLO(float(rng.uniform(0.3, 1.2))),
            rates=tuple(rng.uniform(0.5, 40.0, int(rng.integers(1, 4)))),
            priority=float(rng.choice([1.0, 0.5, 2.0, 3.7])),
            cpu_per_replica=float(rng.choice([1.0, 0.5, 2.0])),
            mem_per_replica=float(rng.choice([1.0, 1.5])),
            min_replicas=int(rng.integers(1, 3)),
            current_replicas=int(rng.integers(0, cap + 1)) if cold else None,
            coldstart_weight=float(rng.choice([0.0, rng.uniform(0.05, 1.0)])) if cold else 0.0,
        )
        for i in range(jobs)
    ]
    budget = 2 * sum(s.min_replicas * max(s.cpu_per_replica, s.mem_per_replica) for s in specs)
    return AllocationProblem(
        specs, ClusterCapacity(cpus=float(budget), mem=float(budget) * 1.25),
        make_objective(name, gamma=gamma), relaxed=relaxed, alpha=alpha,
        latency_model=latency_model, drop_grid=drop_grid,
        table_cache=UtilityTableCache(), max_replicas_per_job=cap,
    )


def special_points(problem, rng: np.random.Generator, count: int = 8):
    """Points whose coordinates mix integers, drop knots, the box's edges
    and beyond, fractions, -0.0 and +-REALMAX."""
    n = problem.num_jobs
    lo, hi = problem._mins_vec.astype(float), problem._max_row_f
    grid = problem.drop_grid
    for _ in range(count):
        kind = rng.integers(0, 6, n)
        x = np.select(
            [kind == 0, kind == 1, kind == 2, kind == 3, kind == 4],
            [
                np.floor(rng.uniform(lo - 2.0, hi + 3.0)),
                rng.uniform(lo, hi),
                np.where(rng.random(n) < 0.5, lo, hi),
                np.where(rng.random(n) < 0.5, -0.0, 0.0),
                rng.uniform(-5.0, hi * 3.0),
            ],
            rng.choice([REALMAX, -REALMAX], n),
        )
        if not problem.objective.uses_drops:
            yield x
            continue
        kind = rng.integers(0, 5, n)
        d = np.select(
            [kind == 0, kind == 1, kind == 2, kind == 3],
            [
                rng.choice(grid, n),
                rng.uniform(0.0, grid[-1], n),
                rng.uniform(-0.5, 1.5, n),
                np.where(rng.random(n) < 0.5, -0.0, 1.0),
            ],
            rng.choice([REALMAX, -REALMAX], n),
        )
        yield np.concatenate([x, d])


class TestPointByPoint:
    @settings(max_examples=60, deadline=None)
    @given(
        jobs=st.integers(1, 40),
        name=st.sampled_from(OBJECTIVE_NAMES),
        gamma=st.one_of(st.none(), st.floats(0.0, 50.0)),
        relaxed=st.booleans(),
        alpha=st.sampled_from([None, 1.0, 0.5]),
        latency_model=st.sampled_from(["mdc", "upper"]),
        cold=st.booleans(),
        grid=st.one_of(
            st.just(DEFAULT_DROP_GRID),
            st.lists(st.floats(0.01, 0.95), max_size=5).map(lambda g: (0.0, *g)),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_problems_and_points(
        self, compiled, jobs, name, gamma, relaxed, alpha, latency_model, cold, grid, seed
    ):
        rng = np.random.default_rng(seed)
        problem = build(
            jobs, name, rng, gamma=gamma, relaxed=relaxed, alpha=alpha,
            latency_model=latency_model, cold=cold, drop_grid=grid,
        )
        assert_same_answers(compiled, problem, list(special_points(problem, rng)))

    @pytest.mark.parametrize("jobs", [1, 130])
    @pytest.mark.parametrize("name", OBJECTIVE_NAMES)
    @pytest.mark.parametrize("relaxed", [True, False])
    def test_one_job_and_more_than_128(self, compiled, jobs, name, relaxed):
        """numpy's one-element ``np.dot`` and the pairwise sum's split."""
        rng = np.random.default_rng(jobs)
        problem = build(
            jobs, name, rng, relaxed=relaxed, alpha=1.0 if relaxed else None,
            latency_model="upper", cap=5,
        )
        assert_same_answers(compiled, problem, list(special_points(problem, rng, 12)))

    def test_cold_start_below_and_above_the_point(self, compiled):
        """``min(current, x)`` takes either side; weight 1 keeps only the warm term."""
        jobs = [
            OptimizationJob(
                name=f"j{i}", proc_time=0.18, slo=SLO(0.72), rates=(8.0, 20.0),
                current_replicas=current, coldstart_weight=weight,
            )
            for i, (current, weight) in enumerate([(0, 0.5), (3, 0.3), (9, 1.0), (5, 0.0)])
        ]
        problem = AllocationProblem(
            jobs, ClusterCapacity.of_replicas(24), make_objective("fairsum"),
            table_cache=UtilityTableCache(),
        )
        points = [
            np.array([2.5, 1.0, 4.25, 7.75]),
            np.array([0.0, 3.0, 9.0, 5.0]),
            np.array([6.5, 5.5, 12.0, 1.0]),
        ]
        assert_same_answers(compiled, problem, points)

    def test_a_point_of_the_wrong_length_is_refused(self, compiled):
        problem = build(3, "penaltysum", np.random.default_rng(0))
        evaluator = compiled.evaluator(problem)
        with pytest.raises(ValueError, match="point must be a contiguous float64 vector of 6"):
            evaluator(np.empty(3), np.empty(1), np.empty(14))
        with pytest.raises(ValueError, match="c must be"):
            evaluator(np.empty(6), np.empty(1), np.empty(8))


def solve_three_ways(problem, x0, maxiter, monkeypatch):
    """One solve on the compiled objective, one with it forced off (the
    driver answered by numpy), one with the driver forced off (scipy)."""
    results = [solve_allocation(problem, x0=x0, maxiter=maxiter)]
    with monkeypatch.context() as patch:
        patch.setattr(objective, "kernel", lambda: None)
        results.append(solve_allocation(problem, x0=x0, maxiter=maxiter))
    with monkeypatch.context() as patch:
        patch.setattr(trstlp, "kernel", lambda: None)
        results.append(solve_allocation(problem, x0=x0, maxiter=maxiter))
    return results


def fingerprint(allocation):
    return (
        allocation.replicas.tobytes(),
        allocation.drops.tobytes(),
        np.float64(allocation.objective_value).tobytes(),
        np.float64(allocation.solver_value).tobytes(),
        allocation.nfev,
        allocation.post_nfev,
    )


class TestWholeSolves:
    """``solve_allocation`` on the compiled objective is ``solve_allocation``
    on the numpy objective, with the driver and without it."""

    @pytest.mark.parametrize("seed", range(8))
    def test_corpus_solves_match(self, compiled, driver, monkeypatch, seed):
        """``TestWholeSolveCorpus``' generator: the drop axis, a binding
        budget and a warm start each on or off by seed."""
        rng = np.random.default_rng(100 + seed)
        drops, binding, warm = seed % 2, (seed // 2) % 2, (seed // 4) % 2
        for _ in range(2):
            problem = random_problem(rng, bool(drops), bool(binding))
            n = problem.num_jobs * (2 if drops else 1)
            x0 = None
            if warm:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    x0 = solve_allocation(problem, maxiter=30)
            maxiter = int(rng.choice([n + 1, 2 * n + 8, 150]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # scipy's MAXFUN warning
                ours, numpy_driver, scipy_solve = solve_three_ways(problem, x0, maxiter, monkeypatch)
            assert fingerprint(ours) == fingerprint(numpy_driver) == fingerprint(scipy_solve)
            assert ours.nfev > 0

    def test_an_evaluator_counts_what_fun_would(self, compiled, driver, monkeypatch):
        problem = random_problem(np.random.default_rng(4), True, True, jobs=6)
        fun, counter = optimizer._negative_objective(problem)
        slacks, size = optimizer._constraint_functions(problem)
        x0 = optimizer._default_start(problem)
        evaluator = compiled.evaluator(problem)
        x, f = driver.minimize(evaluator, x0, size, rhobeg=2.0, maxiter=200)
        x_ref, f_ref = driver.minimize(
            trstlp.callbacks(fun, slacks), x0, size, rhobeg=2.0, maxiter=200
        )
        assert x.tobytes() == x_ref.tobytes() and f == f_ref
        assert evaluator.nfev == counter["nfev"] > 0


class TestWholeRuns:
    def test_paper_so_runs_give_the_same_report(self, compiled, driver, monkeypatch):
        """Five minutes of the SO cluster under both Faro objectives that
        the e2e workloads solve, with the kernel and with it forced off."""
        spec = api.ExperimentSpec.compare(
            "so-objective",
            [api.ScenarioSpec(kind="paper", params={"size": "SO", "duration_minutes": 5})],
            ["faro-fairsum", "faro-penaltyfairsum"],
            simulator="request",
            trials=1,
            seed=0,
            predictor_profile="fast",
        )
        ours = api.run(spec)
        with monkeypatch.context() as patch:
            patch.setattr(objective, "kernel", lambda: None)
            numpy_side = api.run(spec)
        assert digest(ours) == digest(numpy_side)
        for report, state in ((ours, "c"), (numpy_side, "python")):
            for per_policy in report.stats.values():
                for trial in per_policy.values():
                    for result in trial.results:
                        assert result.metadata["kernels"]["objective"] == state


MUTANTS = {
    # numpy sums U * priority pairwise; left to right rounds differently
    # from eight jobs on.
    "left-to-right-sum": (
        "const double weighted = np_sum(products, n);",
        "double weighted = 0.0;\n    for (int64_t j = 0; j < n; j++)\n"
        "        weighted += products[j];",
    ),
    # Every lerp from b to a instead of from a to b.
    "swapped-lerp-operands": (
        "return (1.0 - t) * a + t * b;",
        "return (1.0 - t) * b + t * a;",
    ),
    # Cold-start blending skipped.
    "no-cold-blend": (
        "value = w * warm + (1.0 - w) * value;",
        "(void)warm;",
    ),
}


class TestKernelLoading:
    """The kernel loads where it can; where it cannot, the driver is
    answered by the numpy objective with one warning and identical results."""

    def refused(self, source: str, tmp_path, monkeypatch):
        mutant = tmp_path / "objective.c"
        mutant.write_text(source)
        monkeypatch.setattr(objective, "SOURCE", mutant)
        objective.kernel.cache_clear()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loaded = objective.kernel()
            state = native.kernels()["objective"]
        finally:
            objective.kernel.cache_clear()
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        return loaded is None and state == "python", messages

    def test_kernel_loads_where_it_can_be_built(self, compiled):
        assert native.kernels()["objective"] == "c"

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_is_refused(self, compiled, tmp_path, monkeypatch, name):
        original, replacement = MUTANTS[name]
        source = objective.SOURCE.read_text()
        assert source.count(original) == 1
        refused, messages = self.refused(
            source.replace(original, replacement), tmp_path, monkeypatch
        )
        assert refused and len(messages) == 1
        assert "disagrees with Faro's numpy objective" in messages[0]

    def test_contracted_build_is_refused(self, compiled, tmp_path, monkeypatch):
        """A build free to fuse multiply-adds rounds the lerps once, not twice."""
        from numpy._core._multiarray_umath import __cpu_features__

        if not __cpu_features__.get("FMA3"):
            pytest.skip("this CPU has no fused multiply-add to contract into")
        flags = tuple(flag for flag in native.CFLAGS if not flag.startswith("-ffp-contract"))
        monkeypatch.setattr(native, "CFLAGS", (*flags, "-ffp-contract=fast", "-mfma"))
        refused, messages = self.refused(objective.SOURCE.read_text(), tmp_path, monkeypatch)
        assert refused and len(messages) == 1

    def test_broken_source_falls_back_with_the_same_bits(self, compiled, tmp_path, monkeypatch):
        broken = tmp_path / "objective.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(objective, "SOURCE", broken)
        objective.kernel.cache_clear()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = api.run(tiny_spec("tiny-request", "request"))
        finally:
            objective.kernel.cache_clear()
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1
        assert "cc failed to compile objective.c" in messages[0]
        assert "COBYLA evaluates Faro's objective in numpy" in messages[0]
        for per_policy in report.stats.values():
            for result in per_policy["faro-fairsum"].results:
                assert result.metadata["kernels"]["objective"] == "python"
        assert digest(report) == PRE_REFACTOR_DIGESTS["tiny-request"]

    def test_reading_the_metadata_never_loads(self, monkeypatch):
        fresh = functools.cache(objective.kernel.__wrapped__)
        monkeypatch.setattr(objective, "kernel", fresh)
        assert native.kernels()["objective"] is None
        assert fresh.cache_info().currsize == 0

    def test_the_load_time_check_leaves_the_shared_table_cache_alone(self, compiled):
        before = optimizer.DEFAULT_TABLE_CACHE.stats()
        objective._self_check(compiled)
        assert optimizer.DEFAULT_TABLE_CACHE.stats() == before
