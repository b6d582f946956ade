"""Hot-path invariants: batched evaluation, table cache, warm starts.

The contract under test (see the :mod:`repro.core.optimizer` docstring):

- ``evaluate_many(X, D)[i]`` is **bit-for-bit** equal to
  ``evaluate(X[i], D[i])`` across relaxed/precise formulations and drop
  objectives -- the scalar path is the one-row batched path, and batching
  or chunking candidates can never change a row's score.
- Utility tables are pure functions of their cache key, so a warm
  :class:`UtilityTableCache` yields bit-identical problems (and therefore
  identical allocations) to a cold one.
- Warm-started solves start from a *feasible* projection of the previous
  allocation and land on the same integer allocation as a cold start on a
  stable problem.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objectives import make_objective
from repro.core.optimizer import (
    AllocationProblem,
    ClusterCapacity,
    OptimizationJob,
    UtilityTableCache,
    solve_allocation,
    warm_start_vector,
)
from repro.core.optimizer import _default_start, _round_allocation
from repro.core.utility import SLO
from repro.queueing.vectorized import erlang_c_at_rho, erlang_c_table

SLO_720 = SLO(target=0.72, percentile=99.0)


def job(name, rates, **kwargs):
    kwargs.setdefault("proc_time", 0.18)
    kwargs.setdefault("slo", SLO_720)
    return OptimizationJob(name=name, rates=tuple(rates), **kwargs)


def build_problem(objective_name, relaxed=True, alpha=1.0, coldstart=False, **kwargs):
    jobs = [
        job("a", (12.0, 20.0)),
        job("b", (35.0,), priority=2.0),
        job(
            "c",
            (8.0, 9.0, 30.0),
            current_replicas=2 if coldstart else None,
            coldstart_weight=0.4 if coldstart else 0.0,
        ),
        job("d", (0.0,)),
    ]
    return AllocationProblem(
        jobs,
        ClusterCapacity.of_replicas(24),
        make_objective(objective_name),
        relaxed=relaxed,
        alpha=alpha,
        table_cache=UtilityTableCache(),
        **kwargs,
    )


replica_matrices = st.lists(
    st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=4, max_size=4),
    min_size=1,
    max_size=6,
)
drop_matrices = st.lists(
    st.lists(st.floats(min_value=0.0, max_value=0.6), min_size=4, max_size=4),
    min_size=6,
    max_size=6,
)


class TestEvaluateManyParity:
    @pytest.mark.parametrize("objective_name", ["sum", "fair", "fairsum"])
    @pytest.mark.parametrize(
        "relaxed,alpha", [(True, 1.0), (False, None), (True, None)]
    )
    @settings(max_examples=15, deadline=None)
    @given(matrix=replica_matrices)
    def test_bitwise_parity_no_drops(self, objective_name, relaxed, alpha, matrix):
        problem = build_problem(objective_name, relaxed=relaxed, alpha=alpha)
        X = np.asarray(matrix)
        batched = problem.evaluate_many(X)
        for i in range(X.shape[0]):
            assert batched[i] == problem.evaluate(X[i])

    @pytest.mark.parametrize("objective_name", ["penaltysum", "penaltyfairsum"])
    @pytest.mark.parametrize("relaxed", [True, False])
    @settings(max_examples=10, deadline=None)
    @given(matrix=replica_matrices, drops=drop_matrices)
    def test_bitwise_parity_with_drops(self, objective_name, relaxed, matrix, drops):
        problem = build_problem(objective_name, relaxed=relaxed, alpha=1.0 if relaxed else None)
        X = np.asarray(matrix)
        D = np.asarray(drops)[: X.shape[0]]
        batched = problem.evaluate_many(X, D)
        for i in range(X.shape[0]):
            assert batched[i] == problem.evaluate(X[i], D[i])

    def test_parity_with_coldstart_blending(self):
        problem = build_problem("sum", coldstart=True)
        X = np.array([[1.0, 2.5, 7.0, 1.0], [4.0, 4.0, 4.0, 4.0], [10.0, 1.0, 2.0, 3.0]])
        batched = problem.evaluate_many(X)
        for i in range(X.shape[0]):
            assert batched[i] == problem.evaluate(X[i])

    def test_scalar_path_matches_per_job_formulation(self):
        # The delegated scalar path must still equal the definition: the
        # objective applied to per-job (effective) utilities.
        for name in ("sum", "fairsum", "penaltysum"):
            problem = build_problem(name)
            replicas = np.array([3.0, 5.0, 2.0, 1.0])
            drops = np.array([0.0, 0.1, 0.3, 0.0])
            utilities = [
                problem.job_utility(i, replicas[i], drops[i])
                for i in range(problem.num_jobs)
            ]
            if problem.objective.uses_drops:
                from repro.core.penalty import penalty_multiplier_relaxed

                utilities = [
                    u * penalty_multiplier_relaxed(d)
                    for u, d in zip(utilities, drops)
                ]
            expected = problem.objective.evaluate(utilities, problem._priorities)
            assert problem.evaluate(replicas, drops) == pytest.approx(expected, abs=1e-12)

    def test_chunking_does_not_change_rows(self):
        problem = build_problem("fairsum")
        rng = np.random.default_rng(7)
        X = rng.uniform(0.0, 20.0, size=(5000, 4))  # crosses the chunk boundary
        batched = problem.evaluate_many(X)
        spot = [0, 2047, 2048, 4999]
        for i in spot:
            assert batched[i] == problem.evaluate(X[i])


class TestUtilityTableCache:
    def test_warm_cache_is_bit_identical(self):
        jobs = [job("a", (12.0, 20.0)), job("b", (35.0,))]
        capacity = ClusterCapacity.of_replicas(16)
        cache = UtilityTableCache()
        cold = AllocationProblem(jobs, capacity, make_objective("sum"), table_cache=cache)
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 0
        warm = AllocationProblem(jobs, capacity, make_objective("sum"), table_cache=cache)
        assert cache.stats()["hits"] == 2
        for t_cold, t_warm in zip(cold._tables, warm._tables):
            assert t_cold is t_warm  # shared, not just equal
        X = np.array([[3.0, 5.0], [1.5, 9.0]])
        np.testing.assert_array_equal(cold.evaluate_many(X), warm.evaluate_many(X))

    def test_warm_vs_cold_allocation_identical(self):
        jobs = [job("a", (12.0, 20.0)), job("b", (35.0,)), job("c", (5.0,))]
        capacity = ClusterCapacity.of_replicas(18)
        shared = UtilityTableCache()
        results = []
        for _ in range(2):  # second build hits the cache
            problem = AllocationProblem(
                jobs, capacity, make_objective("fairsum"), table_cache=shared
            )
            results.append(solve_allocation(problem, method="cobyla"))
        fresh = AllocationProblem(
            jobs, capacity, make_objective("fairsum"), table_cache=UtilityTableCache()
        )
        results.append(solve_allocation(fresh, method="cobyla"))
        for other in results[1:]:
            np.testing.assert_array_equal(results[0].replicas, other.replicas)
            assert results[0].objective_value == other.objective_value

    def test_key_ignores_name_priority_and_minimums(self):
        cache = UtilityTableCache()
        a = job("a", (12.0,), priority=1.0)
        b = job("b", (12.0,), priority=5.0, min_replicas=1)
        AllocationProblem([a], ClusterCapacity.of_replicas(8), make_objective("sum"), table_cache=cache)
        AllocationProblem([b], ClusterCapacity.of_replicas(8), make_objective("sum"), table_cache=cache)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)

    def test_key_distinguishes_formulations(self):
        cache = UtilityTableCache()
        j = job("a", (12.0,))
        cap = ClusterCapacity.of_replicas(8)
        AllocationProblem([j], cap, make_objective("sum"), table_cache=cache)
        AllocationProblem([j], cap, make_objective("sum"), relaxed=False, alpha=None, table_cache=cache)
        AllocationProblem([j], cap, make_objective("penaltysum"), table_cache=cache)
        assert cache.stats()["misses"] == 3

    def test_maxsize_zero_disables_storage(self):
        cache = UtilityTableCache(maxsize=0)
        j = job("a", (12.0,))
        cap = ClusterCapacity.of_replicas(8)
        AllocationProblem([j], cap, make_objective("sum"), table_cache=cache)
        AllocationProblem([j], cap, make_objective("sum"), table_cache=cache)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 2, 0)

    def test_lru_eviction(self):
        cache = UtilityTableCache(maxsize=1)
        cap = ClusterCapacity.of_replicas(8)
        AllocationProblem([job("a", (12.0,))], cap, make_objective("sum"), table_cache=cache)
        AllocationProblem([job("b", (13.0,))], cap, make_objective("sum"), table_cache=cache)
        AllocationProblem([job("a", (12.0,))], cap, make_objective("sum"), table_cache=cache)
        assert len(cache) == 1
        assert cache.stats()["hits"] == 0  # each insert evicted the other

    def test_admit_overwrite_releases_displaced_bytes(self):
        # Historical bug: overwriting a key left the displaced table's bytes
        # in _bytes, so the accounting drifted upward by one table per
        # overwrite and eventually triggered premature LRU eviction.
        cache = UtilityTableCache()
        key = ("k",)
        big = np.zeros((64, 4))
        small = np.zeros((8, 4))
        cache._admit(key, big)
        cache._admit(key, small)
        assert len(cache) == 1
        assert cache.stats()["bytes"] == small.nbytes

    def test_load_with_duplicate_keys_keeps_bytes_exact(self, tmp_path):
        # load() re-admits entries in file order; a file with duplicate keys
        # (absorb/load races can produce one) exercises the overwrite path
        # end-to-end: last entry wins and _bytes equals the live entries.
        import pickle

        t1 = np.arange(32, dtype=float).reshape(8, 4)
        t2 = np.arange(8, dtype=float).reshape(2, 4)
        key = ("dup",)
        payload = {
            "version": UtilityTableCache._PICKLE_VERSION,
            "entries": [(key, t1), (key, t2)],
        }
        path = tmp_path / "dup.pkl"
        path.write_bytes(pickle.dumps(payload))
        cache = UtilityTableCache.load(path)
        assert len(cache) == 1
        assert cache.stats()["bytes"] == sum(
            t.nbytes for t in cache._entries.values()
        )
        np.testing.assert_array_equal(cache._entries[key], t2)


class TestCachePersistence:
    def _primed_cache(self):
        cache = UtilityTableCache()
        cap = ClusterCapacity.of_replicas(16)
        AllocationProblem(
            [job("a", (12.0, 20.0)), job("b", (35.0,))],
            cap,
            make_objective("sum"),
            table_cache=cache,
        )
        AllocationProblem(
            [job("c", (5.0,))], cap, make_objective("fairsum"), table_cache=cache
        )
        return cache

    def test_save_load_roundtrip_hits(self, tmp_path):
        cache = self._primed_cache()
        path = tmp_path / "tables.pkl"
        cache.save(path)
        loaded = UtilityTableCache.load(path)
        assert len(loaded) == len(cache)
        assert loaded.stats()["bytes"] == cache.stats()["bytes"]
        # Re-building the same problems against the loaded cache is pure
        # hits, and the tables are bit-for-bit the saved ones.
        cap = ClusterCapacity.of_replicas(16)
        jobs = [job("a", (12.0, 20.0)), job("b", (35.0,))]
        cold = AllocationProblem(
            jobs, cap, make_objective("sum"), table_cache=UtilityTableCache()
        )
        warm = AllocationProblem(jobs, cap, make_objective("sum"), table_cache=loaded)
        assert loaded.stats()["hits"] == 2 and loaded.stats()["misses"] == 0
        for t_cold, t_warm in zip(cold._tables, warm._tables):
            np.testing.assert_array_equal(t_cold, t_warm)

    def test_cross_process_warmup(self, tmp_path):
        # Same contract a fresh process sees: save in one cache, solve from
        # the loaded one, allocations identical to a cold solve.
        cache = self._primed_cache()
        path = tmp_path / "tables.pkl"
        cache.save(path)
        loaded = UtilityTableCache.load(path)
        jobs = [job("a", (12.0, 20.0)), job("b", (35.0,))]
        cap = ClusterCapacity.of_replicas(16)
        cold = solve_allocation(
            AllocationProblem(
                jobs, cap, make_objective("sum"), table_cache=UtilityTableCache(maxsize=0)
            ),
            method="cobyla",
        )
        warm = solve_allocation(
            AllocationProblem(jobs, cap, make_objective("sum"), table_cache=loaded),
            method="cobyla",
        )
        np.testing.assert_array_equal(cold.replicas, warm.replicas)
        assert cold.objective_value == warm.objective_value

    def test_load_respects_budget(self, tmp_path):
        cache = self._primed_cache()
        path = tmp_path / "tables.pkl"
        cache.save(path)
        assert len(UtilityTableCache.load(path, maxsize=1)) == 1
        assert len(UtilityTableCache.load(path, max_bytes=0)) == 0

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.pkl"
        import pickle

        path.write_bytes(pickle.dumps({"not": "a cache"}))
        with pytest.raises(ValueError):
            UtilityTableCache.load(path)

    def test_loaded_tables_are_readonly(self, tmp_path):
        cache = self._primed_cache()
        path = tmp_path / "tables.pkl"
        cache.save(path)
        loaded = UtilityTableCache.load(path)
        table = next(iter(loaded._entries.values()))
        with pytest.raises(ValueError):
            table[0] = 123.0


class TestMergeSave:
    """Write-back persistence: many writers, one shared cache file."""

    def _cache_with(self, *keys):
        cache = UtilityTableCache()
        for i, key in enumerate(keys):
            table = np.arange(8, dtype=float).reshape(2, 4) + i
            table.setflags(write=False)
            cache._admit((key,), table)
        return cache

    def test_merge_save_creates_missing_file(self, tmp_path):
        path = tmp_path / "tables.pkl"
        assert self._cache_with("a", "b").merge_save(path) == 2
        assert len(UtilityTableCache.load(path)) == 2

    def test_merge_save_merges_instead_of_clobbering(self, tmp_path):
        # The concurrent-save regression: plain save() from two workers
        # loses the first writer's tables; merge_save must keep the union.
        path = tmp_path / "tables.pkl"
        self._cache_with("a", "b").merge_save(path)
        self._cache_with("b", "c").merge_save(path)
        merged = UtilityTableCache.load(path)
        assert sorted(key[0] for key in merged._entries) == ["a", "b", "c"]

    def test_concurrent_merge_saves_lose_nothing(self, tmp_path):
        # Eight threads race merge_save on one file with disjoint entries;
        # the flock + read-merge-replace protocol must preserve all of
        # them, whatever the interleaving.
        import threading

        path = tmp_path / "tables.pkl"
        errors = []

        def writer(index):
            try:
                self._cache_with(f"w{index}-a", f"w{index}-b").merge_save(path)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        merged = UtilityTableCache.load(path)
        assert len(merged) == 16
        assert not list(tmp_path.glob("*.tmp"))

    def test_corrupt_existing_file_is_replaced(self, tmp_path):
        path = tmp_path / "tables.pkl"
        path.write_bytes(b"\x80\x05 truncated garbage")
        assert self._cache_with("a").merge_save(path) == 1
        assert len(UtilityTableCache.load(path)) == 1

    def test_sweep_write_back_persists_worker_tables(self, tmp_path):
        # End-to-end through the sharded executor: a sweep with
        # cache_write_back leaves a loadable cache file whose tables warm
        # the next run, without perturbing the report.
        from repro import api

        spec = api.ExperimentSpec.compare(
            "wb",
            [
                api.ScenarioSpec(
                    kind="paper",
                    params={
                        "size": 8,
                        "num_jobs": 2,
                        "duration_minutes": 8,
                        "days": 2,
                        "rate_hi": 300.0,
                    },
                    name="tiny-wb",
                )
            ],
            # The faro policy builds utility tables (baselines never touch
            # the cache, so write-back would be empty).
            ["fairshare", "faro-fairsum"],
            trials=2,
            simulator="flow",
            predictor_profile={"epochs": 1, "max_windows": 64},
        )
        cache_path = tmp_path / "tables.pkl"
        report = api.run_parallel(
            spec, workers=2, cache_path=cache_path, cache_write_back=True
        )
        assert not report.failures
        assert cache_path.exists()
        warmed = UtilityTableCache.load(cache_path)
        assert len(warmed) > 0
        import json

        again = api.run_parallel(
            spec, workers=2, cache_path=cache_path, cache_write_back=True
        )
        assert json.dumps(again.to_dict()) == json.dumps(report.to_dict())

    def test_write_back_requires_cache_path(self):
        from repro import api

        spec = api.ExperimentSpec.compare(
            "wb-bad",
            [api.ScenarioSpec(kind="paper", params={"size": 8, "num_jobs": 2})],
            ["fairshare"],
        )
        with pytest.raises(ValueError, match="cache_path"):
            api.run_parallel(spec, workers=1, cache_write_back=True)


class TestWarmStart:
    def test_warm_start_vector_is_feasible(self):
        problem = build_problem("sum")
        cold = solve_allocation(problem, method="cobyla")
        x0 = warm_start_vector(problem, cold)
        assert problem.is_feasible(x0)

    def test_warm_start_projects_oversized_previous_allocation(self):
        # Previous cycle ran on a bigger cluster; its allocation must be
        # projected into the new, tighter capacity.
        jobs = [job("a", (20.0,)), job("b", (20.0,))]
        big = AllocationProblem(
            jobs, ClusterCapacity.of_replicas(40), make_objective("sum"),
            table_cache=UtilityTableCache(),
        )
        prev = solve_allocation(big, method="greedy")
        small = AllocationProblem(
            jobs, ClusterCapacity.of_replicas(10), make_objective("sum"),
            table_cache=UtilityTableCache(),
        )
        x0 = warm_start_vector(small, prev)
        assert small.is_feasible(x0)
        assert small.cpu_usage(x0) <= small.capacity.cpus + 1e-9

    def test_warm_start_job_count_mismatch_raises(self):
        problem = build_problem("sum")
        other = AllocationProblem(
            [job("x", (5.0,))], ClusterCapacity.of_replicas(4), make_objective("sum"),
            table_cache=UtilityTableCache(),
        )
        prev = solve_allocation(other, method="greedy")
        with pytest.raises(ValueError):
            warm_start_vector(problem, prev)

    def test_warm_start_drop_count_mismatch_raises(self):
        # Historical bug: a drop-length mismatch silently produced a
        # malformed solver vector while the replica path raised.  Both
        # mismatches now fail loudly with the same contract.
        from dataclasses import replace

        problem = build_problem("penaltysum")
        good = solve_allocation(problem, method="greedy")
        bad_drops = replace(good, drops=np.zeros(problem.num_jobs + 1))
        with pytest.raises(ValueError, match="drop rates"):
            warm_start_vector(problem, bad_drops)
        bad_replicas = replace(
            good, replicas=np.ones(problem.num_jobs + 1, dtype=int)
        )
        with pytest.raises(ValueError, match="jobs"):
            warm_start_vector(problem, bad_replicas)

    def test_warm_start_parity_with_cold_start(self):
        # On a stable problem (fixed seed), solving again from the previous
        # allocation must land on the same integer allocation.
        problem = build_problem("sum")
        cold = solve_allocation(problem, method="cobyla", seed=0)
        warm = solve_allocation(problem, method="cobyla", x0=cold, seed=0)
        np.testing.assert_array_equal(cold.replicas, warm.replicas)
        np.testing.assert_array_equal(cold.drops, warm.drops)
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)

    def test_warm_start_parity_with_drops(self):
        problem = build_problem("penaltysum")
        cold = solve_allocation(problem, method="cobyla", seed=0)
        warm = solve_allocation(problem, method="cobyla", x0=cold, seed=0)
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-9)
        assert problem.is_feasible(warm.replicas)


class TestRawStartLength:
    """A raw ``x0`` is checked once, before any solver runs: 1-D, ``n``
    entries or ``2 n`` for a penalty objective, where pgd also takes ``n``;
    de and greedy ignore it."""

    ACCEPTED = {
        ("cobyla", "fairsum"): {3}, ("cobyla", "penaltyfairsum"): {6},
        ("slsqp", "fairsum"): {3}, ("slsqp", "penaltyfairsum"): {6},
        ("pgd", "fairsum"): {3}, ("pgd", "penaltyfairsum"): {3, 6},
    }

    @pytest.mark.parametrize("method", ["cobyla", "slsqp", "pgd", "de", "greedy"])
    @pytest.mark.parametrize("objective", ["fairsum", "penaltyfairsum"])
    @pytest.mark.parametrize("length", [2, 3, 4, 6, 7])
    def test_every_method_objective_and_length(self, method, objective, length):
        jobs = [job(name, (10.0,)) for name in "abc"]
        problem = AllocationProblem(
            jobs, ClusterCapacity.of_replicas(10), make_objective(objective),
            table_cache=UtilityTableCache(),
        )
        x0 = np.full(length, 2.0)
        accepted = self.ACCEPTED.get((method, objective))
        if accepted is None or length in accepted:
            allocation = solve_allocation(problem, method=method, x0=x0, maxiter=60, seed=0)
            assert allocation.replicas.shape == (3,)
            return
        expected = " or ".join(map(str, sorted(accepted)))
        with pytest.raises(ValueError) as raised:
            solve_allocation(problem, method=method, x0=x0, maxiter=60)
        message = str(raised.value)
        assert "\n" not in message
        assert f"method={method!r}" in message
        assert f"{expected} entries, got {length}" in message

    def test_a_start_that_is_not_a_vector_is_refused(self):
        problem = build_problem("sum")
        with pytest.raises(ValueError, match=r"got an array of shape \(1, 4\)"):
            solve_allocation(problem, x0=np.ones((1, 4)))
        with pytest.raises(ValueError, match=r"got an array of shape \(\)"):
            solve_allocation(problem, method="pgd", x0=2.0)


class TestDefaultStartRegression:
    def test_tight_capacity_heterogeneous_cpu(self):
        # Historical bug: scaling into capacity then re-flooring at
        # min_replicas pushed CPU usage back above capacity.  Five jobs with
        # min_replicas=1 and cpu_per_replica=3 under 16 CPUs: the fair share
        # is > 1, scaling pulls everyone below 1.07, and flooring at the
        # minimum used to land at 5 * 3 = 15 < 16 only by luck of these
        # numbers -- with 4 CPUs per replica it overshot (5 * 4 = 20 > 16).
        jobs = [
            job(f"j{i}", (10.0,), cpu_per_replica=4.0, min_replicas=1)
            for i in range(4)
        ] + [job("light", (1.0,), cpu_per_replica=0.5)]
        problem = AllocationProblem(
            jobs, ClusterCapacity(cpus=17.0, mem=100.0), make_objective("sum"),
            table_cache=UtilityTableCache(),
        )
        x0 = _default_start(problem)
        assert problem.cpu_usage(x0) <= problem.capacity.cpus + 1e-9
        for j, x in zip(problem.jobs, x0):
            assert x >= j.min_replicas - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        cpus=st.lists(st.floats(min_value=0.25, max_value=6.0), min_size=2, max_size=6),
        slack=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_default_start_always_feasible(self, cpus, slack):
        jobs = [
            job(f"j{i}", (10.0,), cpu_per_replica=c, min_replicas=1)
            for i, c in enumerate(cpus)
        ]
        capacity = ClusterCapacity(cpus=sum(cpus) + slack, mem=1000.0)
        problem = AllocationProblem(
            jobs, capacity, make_objective("sum"), table_cache=UtilityTableCache()
        )
        x0 = _default_start(problem)
        assert problem.is_feasible(x0)

    def test_solvers_get_feasible_start_with_drops(self):
        jobs = [job(f"j{i}", (30.0,), cpu_per_replica=2.5) for i in range(3)]
        problem = AllocationProblem(
            jobs, ClusterCapacity(cpus=9.0, mem=100.0), make_objective("penaltysum"),
            table_cache=UtilityTableCache(),
        )
        z0 = _default_start(problem)
        assert z0.shape[0] == 2 * problem.num_jobs
        assert problem.is_feasible(z0[: problem.num_jobs])


class TestRoundingRegression:
    def test_trim_prefers_expensive_replicas(self):
        # One 8-CPU job at 2 replicas and four 1-CPU jobs at 5 replicas
        # each: the floor uses 36 of 28 CPUs.  Footprint-aware trimming
        # drops the single expensive replica (frees the whole 8-CPU excess);
        # the old count-keyed trim would have evicted eight cheap replicas.
        jobs = [job("big", (30.0,), cpu_per_replica=8.0)] + [
            job(f"small{i}", (10.0,), cpu_per_replica=1.0) for i in range(4)
        ]
        problem = AllocationProblem(
            jobs, ClusterCapacity(cpus=28.0, mem=100.0), make_objective("sum"),
            table_cache=UtilityTableCache(),
        )
        rounded = _round_allocation(problem, np.array([2.0, 5.0, 5.0, 5.0, 5.0]))
        assert problem.is_feasible(rounded)
        assert rounded[0] == 1  # the one expensive replica was evicted
        assert all(r == 5 for r in rounded[1:])  # cheap replicas untouched

    def test_mem_infeasible_minimums_raise_at_construction(self):
        jobs = [job(f"j{i}", (5.0,), mem_per_replica=4.0, min_replicas=2) for i in range(3)]
        with pytest.raises(ValueError, match="memory"):
            AllocationProblem(
                jobs, ClusterCapacity(cpus=100.0, mem=10.0), make_objective("sum"),
                table_cache=UtilityTableCache(),
            )

    def test_rounded_solution_feasible_under_mem_pressure(self):
        jobs = [
            job("a", (25.0,), mem_per_replica=3.0),
            job("b", (25.0,), mem_per_replica=1.0),
        ]
        problem = AllocationProblem(
            jobs, ClusterCapacity(cpus=50.0, mem=12.0), make_objective("sum"),
            table_cache=UtilityTableCache(),
        )
        allocation = solve_allocation(problem, method="cobyla")
        assert problem.is_feasible(allocation.replicas)
        assert problem.mem_usage(allocation.replicas) <= 12.0 + 1e-9


class TestErlangPrefixCache:
    def test_prefix_slice_matches_direct_computation(self):
        rho = 0.93
        large = erlang_c_at_rho(rho, 64)
        small = erlang_c_at_rho(rho, 12)  # served by slicing the cached 64
        np.testing.assert_array_equal(small, large[:12])
        # And both match an uncached direct diagonal at the small size.
        table = erlang_c_table(rho * np.arange(1, 13, dtype=float), 12)
        direct = np.array([table[k - 1, k - 1] for k in range(1, 13)])
        np.testing.assert_array_equal(small, direct)

    def test_growth_preserves_prefix(self):
        rho = 0.87
        small = erlang_c_at_rho(rho, 6)
        large = erlang_c_at_rho(rho, 40)  # forces regrowth
        np.testing.assert_array_equal(small, large[:6])

    def test_returned_arrays_are_independent(self):
        a = erlang_c_at_rho(0.91, 8)
        a_copy = a.copy()
        a[:] = -1.0  # mutating the returned array must not poison the cache
        b = erlang_c_at_rho(0.91, 8)
        np.testing.assert_array_equal(b, a_copy)


class TestNfevAccounting:
    """``nfev`` vs ``post_nfev``: solver rows split from post-processing rows.

    Historical bug: rounding and drop refinement spent evaluation rows that
    were never reported anywhere, so ``nfev`` under-stated where planner
    time went (at 1000 jobs COBYLA's post-processing alone spends ~650k
    rows against 1200 solver rows).
    """

    def test_post_rows_split_out_of_solver_rows(self):
        problem = build_problem("penaltysum")
        a = solve_allocation(problem, method="cobyla", seed=0)
        assert a.nfev > 0
        # penaltysum always refines drops on the grid, so post rows are
        # guaranteed non-zero here.
        assert a.post_nfev > 0

    def test_greedy_phase1_rows_reported_as_nfev(self):
        problem = build_problem("sum")
        a = solve_allocation(problem, method="greedy")
        assert a.nfev > 0
        assert a.post_nfev >= 0


class TestMaxReplicasPerJob:
    def test_cap_bounds_tables_and_allocation(self):
        problem = build_problem("sum", max_replicas_per_job=3)
        assert int(problem.max_replicas.max()) <= 3
        for table in problem._tables:
            assert table.shape[0] <= 4  # rows 0..cap
        a = solve_allocation(problem, method="greedy")
        assert int(a.replicas.max()) <= 3

    def test_cap_respects_min_replicas(self):
        jobs = [job("a", (12.0,), min_replicas=5), job("b", (12.0,))]
        problem = AllocationProblem(
            jobs,
            ClusterCapacity.of_replicas(24),
            make_objective("sum"),
            table_cache=UtilityTableCache(),
            max_replicas_per_job=3,
        )
        # min_replicas wins over the cap, as it does over tight capacity.
        assert problem.max_replicas[0] == 5
        assert problem.max_replicas[1] == 3

    def test_cap_default_is_identity(self):
        capped = build_problem("sum", max_replicas_per_job=None)
        plain = build_problem("sum")
        np.testing.assert_array_equal(capped.max_replicas, plain.max_replicas)
        a = solve_allocation(plain, method="cobyla", seed=0)
        b = solve_allocation(capped, method="cobyla", seed=0)
        np.testing.assert_array_equal(a.replicas, b.replicas)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            build_problem("sum", max_replicas_per_job=0)
