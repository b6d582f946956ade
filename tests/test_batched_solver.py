"""Differential suite for the batched first-order solver (``method="pgd"``).

The contracts under test:

- :meth:`AllocationProblem.evaluate_perturbed` is **bit-for-bit** equal to
  the naive ``evaluate_many`` over the full perturbation matrix (that is
  what lets the solver and integer rounding evaluate all ``n`` coordinate
  moves from two interpolation rows).
- ``pgd``-then-round allocations are always feasible, deterministic, and
  never worse than greedy phase-1; on reference problems they are within
  1% of (in practice: well above) budget-matched COBYLA.
- The default ``method="cobyla"`` path is byte-identical to pre-PR digests
  -- the new primitives changed *how* candidate scans are computed, not a
  single bit of *what* they compute.
- The interpolation kernel's numba backend (when numba is importable) is
  bit-identical to the numpy reference.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import interp
from repro.core.batched_solver import PGDOptions, _demand_start, solve_pgd
from repro.core.objectives import make_objective
from repro.core.optimizer import (
    AllocationProblem,
    ClusterCapacity,
    OptimizationJob,
    UtilityTableCache,
    solve_allocation,
)
from repro.core.optimizer import _greedy_phase1
from repro.core.utility import SLO

SLO_720 = SLO(target=0.72, percentile=99.0)


def make_jobs(n, scenarios=6, seed=0, varied=False):
    """Deterministic job set; ``varied=True`` adds priority/minimum spread."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n):
        base = rng.uniform(5.0, 40.0)
        rates = tuple(np.maximum(rng.normal(base, base * 0.2, size=scenarios), 0.0))
        jobs.append(
            OptimizationJob(
                name=f"j{i}",
                proc_time=0.18,
                slo=SLO_720,
                rates=rates,
                priority=1.0 + (i % 3) if varied else 1.0,
                min_replicas=1 + (i % 2) if varied else 1,
            )
        )
    return jobs


def make_problem(objective="fairsum", n=6, replicas_per_job=3.0, varied=False, seed=0):
    return AllocationProblem(
        make_jobs(n, seed=seed, varied=varied),
        ClusterCapacity.of_replicas(int(replicas_per_job * n)),
        make_objective(objective),
        table_cache=UtilityTableCache(),
    )


# Randomized problem shapes for the hypothesis-driven properties.
problem_shapes = st.fixed_dictionaries(
    {
        "objective": st.sampled_from(
            ["sum", "fair", "fairsum", "penaltysum", "penaltyfairsum"]
        ),
        "n": st.integers(min_value=2, max_value=7),
        "replicas_per_job": st.floats(min_value=1.5, max_value=5.0),
        "varied": st.booleans(),
        "seed": st.integers(min_value=0, max_value=50),
    }
)


class TestEvaluatePerturbed:
    @settings(max_examples=25, deadline=None)
    @given(
        shape=problem_shapes,
        delta_sign=st.sampled_from([1.0, -1.0]),
        delta_mag=st.floats(min_value=0.25, max_value=2.0),
    )
    def test_bitwise_parity_with_naive_perturbation_matrix(
        self, shape, delta_sign, delta_mag
    ):
        problem = make_problem(**shape)
        n = problem.num_jobs
        rng = np.random.default_rng(shape["seed"] + 1)
        x = problem._mins_vec + rng.uniform(0.0, 3.0, size=n)
        deltas = np.full(n, delta_sign * delta_mag)
        drops = (
            rng.uniform(0.0, 0.4, size=n)
            if problem.objective.uses_drops
            else np.zeros(n)
        )
        base, scores = problem.evaluate_perturbed(x, deltas, drops)
        P = np.repeat(x[None, :], n, axis=0)
        P[np.arange(n), np.arange(n)] += deltas
        naive = problem.evaluate_many(P, drops[None, :])
        assert base == problem.evaluate(x, drops)
        assert np.array_equal(scores, naive)

    def test_parity_with_coldstart_blending(self):
        jobs = [
            OptimizationJob(
                name=f"j{i}",
                proc_time=0.18,
                slo=SLO_720,
                rates=(12.0, 20.0 + i),
                current_replicas=2,
                coldstart_weight=0.4,
            )
            for i in range(4)
        ]
        problem = AllocationProblem(
            jobs,
            ClusterCapacity.of_replicas(16),
            make_objective("fairsum"),
            table_cache=UtilityTableCache(),
        )
        x = np.array([1.5, 2.0, 3.0, 2.5])
        base, scores = problem.evaluate_perturbed(x, 1.0)
        P = np.repeat(x[None, :], 4, axis=0)
        P[np.arange(4), np.arange(4)] += 1.0
        assert base == problem.evaluate(x)
        assert np.array_equal(scores, problem.evaluate_many(P))

    def test_chunked_parity_beyond_eval_chunk(self):
        # Exercise the chunked objective reduction (n > _EVAL_CHUNK needs a
        # huge problem; instead shrink the chunk size via monkeypatching-free
        # indirect check: per-chunk results already covered, so just check a
        # mid-size n for block-boundary bookkeeping).
        problem = make_problem(n=7, varied=True)
        x = problem._mins_vec.astype(float) + 0.5
        base, scores = problem.evaluate_perturbed(x, 1.0)
        P = np.repeat(x[None, :], 7, axis=0)
        P[np.arange(7), np.arange(7)] += 1.0
        assert np.array_equal(scores, problem.evaluate_many(P))
        assert base == problem.evaluate(x)

    def test_shape_validation(self):
        problem = make_problem(n=3)
        with pytest.raises(ValueError, match="replica vector"):
            problem.evaluate_perturbed(np.ones((2, 3)), 1.0)
        with pytest.raises(ValueError, match="drop vector"):
            problem.evaluate_perturbed(np.ones(3), 1.0, np.zeros(4))


class TestPGDSolver:
    def test_registered_in_solve_allocation(self):
        problem = make_problem()
        allocation = solve_allocation(problem, method="pgd")
        assert allocation.method == "pgd"
        assert problem.is_feasible(allocation.replicas)
        assert allocation.nfev > 0
        assert allocation.post_nfev > 0

    def test_deterministic(self):
        a = solve_allocation(make_problem(varied=True), method="pgd")
        b = solve_allocation(make_problem(varied=True), method="pgd")
        assert np.array_equal(a.replicas, b.replicas)
        assert a.objective_value == b.objective_value
        assert a.nfev == b.nfev

    @settings(max_examples=20, deadline=None)
    @given(shape=problem_shapes)
    def test_feasible_and_never_worse_than_greedy_phase1(self, shape):
        problem = make_problem(**shape)
        allocation = solve_allocation(problem, method="pgd")
        assert problem.is_feasible(allocation.replicas)
        assert np.array_equal(allocation.replicas, allocation.replicas.astype(int))
        phase1 = _greedy_phase1(problem)
        phase1_value = problem.evaluate(phase1, np.zeros(problem.num_jobs))
        assert allocation.objective_value >= phase1_value - 1e-9

    @pytest.mark.parametrize(
        "objective,n", [("fairsum", 8), ("sum", 12), ("fair", 5), ("penaltysum", 6)]
    )
    def test_within_tolerance_of_cobyla(self, objective, n):
        """The ISSUE's quality contract: pgd >= COBYLA - 1% (differential)."""
        problem = make_problem(objective, n=n, varied=True)
        pgd = solve_allocation(problem, method="pgd")
        cobyla = solve_allocation(problem, method="cobyla", seed=0)
        tol = 0.01 * max(1.0, abs(cobyla.objective_value))
        assert pgd.objective_value >= cobyla.objective_value - tol

    def test_warm_start_accepted(self):
        problem = make_problem(varied=True)
        first = solve_allocation(problem, method="pgd")
        again = solve_allocation(problem, method="pgd", x0=first)
        assert problem.is_feasible(again.replicas)
        assert again.objective_value >= first.objective_value - 1e-9

    def test_solver_options_plumb_through(self):
        problem = make_problem()
        allocation = solve_allocation(
            problem,
            method="pgd",
            solver_options={"maxiter": 5, "multi_start": False},
        )
        assert problem.is_feasible(allocation.replicas)

    def test_unknown_solver_option_raises(self):
        with pytest.raises(ValueError, match="unknown pgd solver option"):
            solve_allocation(
                make_problem(), method="pgd", solver_options={"maxitr": 5}
            )

    def test_solver_options_rejected_for_other_methods(self):
        with pytest.raises(ValueError, match="only supported for method='pgd'"):
            solve_allocation(
                make_problem(), method="cobyla", solver_options={"maxiter": 5}
            )

    def test_invalid_option_values_raise(self):
        with pytest.raises(ValueError, match="maxiter"):
            PGDOptions(maxiter=0)
        with pytest.raises(ValueError, match="fd_step"):
            PGDOptions(fd_step=0.0)
        with pytest.raises(ValueError, match="snap_batch"):
            PGDOptions(snap_batch=0)

    def test_snap_false_returns_continuous_optimum(self):
        problem = make_problem()
        z, value, nfev = solve_pgd(problem, options={"snap": False})
        assert z.shape == (problem.num_jobs,)
        assert nfev > 0
        # The continuous point is feasible (projection invariant).
        assert problem.cpu_usage(z) <= problem.capacity.cpus + 1e-6
        assert np.all(z >= problem._mins_vec - 1e-9)

    def test_demand_start_is_feasible(self):
        problem = make_problem(varied=True, replicas_per_job=2.0)
        x = _demand_start(problem)
        assert problem.cpu_usage(x) <= problem.capacity.cpus + 1e-6
        assert np.all(x >= problem._mins_vec - 1e-9)

    def test_respects_min_replicas(self):
        problem = make_problem(varied=True)
        allocation = solve_allocation(problem, method="pgd")
        assert np.all(allocation.replicas >= problem._mins_vec)

    def test_pgd_through_faro_config(self):
        from repro.core.autoscaler import FaroConfig

        cfg = FaroConfig(solver="pgd", solver_options={"maxiter": 10})
        assert cfg.solver_options == {"maxiter": 10}

    def test_pgd_through_hierarchical(self):
        from repro.core.hierarchical import solve_hierarchical

        jobs = make_jobs(12, varied=True)
        result = solve_hierarchical(
            jobs,
            ClusterCapacity.of_replicas(36),
            make_objective("fairsum"),
            groups=3,
            method="pgd",
            seed=0,
            table_cache=UtilityTableCache(),
            solver_options={"maxiter": 20},
        )
        assert result.allocation.method == "hier-pgd-G3"
        # post_nfev is legitimately 0 here: fairsum has no drop refinement
        # and the snapped groups leave no capacity slack for rounding to
        # scan, so the post-processing spends no evaluation rows.
        assert result.allocation.post_nfev >= 0
        assert result.allocation.nfev > 0


class TestCobylaDigestPins:
    """Pre-PR byte-identity: the default solver path must not move one bit.

    Digests were captured on the commit *before* this PR introduced
    ``evaluate_perturbed``-backed rounding and the interp kernel extraction;
    they pin replicas (int64 bytes) + drops (rounded to 12 decimals).
    """

    EXPECTED = {
        ("fairsum", 8, 3.0): "15b78716885be677",
        ("sum", 12, 2.5): "2b7dc12abb539507",
        ("penaltysum", 6, 2.0): "d2cb907cf356eea2",
        ("fair", 5, 3.0): "dd40f4430419deb0",
    }

    @pytest.mark.parametrize("objective,n,reps", sorted(EXPECTED))
    def test_digest_unchanged(self, objective, n, reps):
        problem = make_problem(objective, n=n, replicas_per_job=reps, varied=True)
        allocation = solve_allocation(problem, method="cobyla", seed=0)
        h = hashlib.sha256()
        h.update(np.asarray(allocation.replicas, dtype=np.int64).tobytes())
        h.update(np.round(np.asarray(allocation.drops, dtype=float), 12).tobytes())
        assert h.hexdigest()[:16] == self.EXPECTED[(objective, n, reps)]


class TestInterpBackends:
    def test_default_backend_resolves(self):
        assert interp.get_backend() in ("numpy", "numba")

    def test_set_backend_validates(self):
        with pytest.raises(ValueError, match="unknown interp backend"):
            interp.set_backend("cuda")
        if not interp.numba_available():
            with pytest.raises(RuntimeError, match="numba is not importable"):
                interp.set_backend("numba")

    def test_numba_probe_runs_once(self, monkeypatch):
        """A failed (or successful) numba import is probed once per process,
        not on every interp_flat call."""
        import builtins

        real_import = builtins.__import__
        attempts = []

        def counting_import(name, *args, **kwargs):
            if name == "numba":
                attempts.append(name)
            return real_import(name, *args, **kwargs)

        interp.numba_available.cache_clear()
        monkeypatch.setattr(builtins, "__import__", counting_import)
        try:
            first = interp.numba_available()
            assert interp.numba_available() == first
            interp.get_backend()
        finally:
            monkeypatch.undo()
            interp.numba_available.cache_clear()
        assert attempts == ["numba"]

    def test_numpy_backend_is_solver_default_fallback(self):
        # With numba absent, auto == numpy; with numba present the next test
        # asserts bit-identity, so either way results match the reference.
        interp.set_backend("numpy")
        try:
            a = solve_allocation(make_problem(varied=True), method="pgd")
        finally:
            interp.set_backend("auto")
        b = solve_allocation(make_problem(varied=True), method="pgd")
        assert np.array_equal(a.replicas, b.replicas) or interp.numba_available()

    @pytest.mark.skipif(
        not interp.numba_available(), reason="numba not installed"
    )
    def test_numba_bit_identity(self):
        problem = make_problem("penaltyfairsum", n=7, varied=True)
        rng = np.random.default_rng(3)
        R = problem._mins_vec + rng.uniform(0.0, 4.0, size=(40, 7))
        D = rng.uniform(0.0, 0.5, size=(40, 7))
        interp.set_backend("numpy")
        try:
            ref = problem.evaluate_many(R, D)
            interp.set_backend("numba")
            jit = problem.evaluate_many(R, D)
        finally:
            interp.set_backend("auto")
        assert np.array_equal(ref, jit)

    @pytest.mark.skipif(
        not interp.numba_available(), reason="numba not installed"
    )
    def test_numba_solver_bit_identity(self):
        interp.set_backend("numpy")
        try:
            a = solve_allocation(make_problem(varied=True), method="pgd")
            interp.set_backend("numba")
            b = solve_allocation(make_problem(varied=True), method="pgd")
        finally:
            interp.set_backend("auto")
        assert np.array_equal(a.replicas, b.replicas)
        assert a.objective_value == b.objective_value
