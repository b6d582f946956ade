"""Cluster optimization: precise and relaxed formulations plus solvers (§3.4).

The decision variables are per-job replica counts ``x_i`` (and per-job drop
rates ``d_i`` for penalty objectives).  The objective is one of the five
cluster objectives (:mod:`repro.core.objectives`) applied to per-job
(effective) utilities, where a job's utility is the scenario-weighted mean of
``U(L(lam, p, x), s)`` over its predicted arrival-rate scenarios
(:mod:`repro.core.latency`).  Constraints cap total vCPU and memory at the
cluster size (paper Eq. 3).

Two formulations are supported:

- **precise** -- step utility + hard M/D/c (``inf`` when unstable) + step
  penalty multiplier.  Full of plateaus; solvers stall (Fig. 5 "Precise").
- **relaxed** -- inverse utility (Eq. 1) + plateau-free M/D/c
  (``rho_max = 0.95``) + piecewise-linear penalty.  COBYLA/SLSQP solve it in
  well under a second (Fig. 5 "Relaxed").

Implementation note: per-job utilities are precomputed as tables over integer
replica counts (and a drop-rate grid) using the vectorized queueing kernels,
then linearly interpolated for fractional solver iterates.  Interpolating the
*precise* table preserves its plateaus (utilities are flat between integer
points), so the precise formulation stays as hostile to local solvers as the
paper describes.

Hot-path architecture (planner-latency engineering, §3.4 / Fig. 5):

- **Table cache.**  Utility tables are obtained through a keyed
  :class:`UtilityTableCache` rather than rebuilt per problem.  The key is
  ``(proc_time, SLO target, SLO percentile, digest(rates, weights), max_x,
  drop grid, relaxed, alpha, rho_max, latency_model)`` -- everything the
  table depends on and nothing it does not (job name, priority, minimums and
  cold-start state are evaluation-time concerns).  Repeated solves across
  autoscaler cycles, hierarchical subtrees and solver comparisons therefore
  reuse tables bit-for-bit instead of recomputing
  :func:`~repro.queueing.vectorized.mdc_latency_table`.  A module-level
  :data:`DEFAULT_TABLE_CACHE` is shared by default; pass ``table_cache`` to
  :class:`AllocationProblem` for an isolated (or disabled, ``maxsize=0``)
  cache.
- **Batched evaluation.**  :meth:`AllocationProblem.evaluate_many` scores a
  whole ``(candidates, jobs)`` replica matrix in single numpy passes
  (flattened-table fancy indexing; no per-job Python loop) and is the
  primitive under :meth:`AllocationProblem.evaluate`, integer rounding, the
  drop-grid refinement and the greedy solver's move scan.  Contract:
  ``evaluate_many(X)[i]`` is bit-for-bit equal to ``evaluate(X[i])`` -- the
  scalar path *is* the one-row batched path.
- **Warm starts.**  :func:`solve_allocation` accepts a previous cycle's
  :class:`Allocation` (or raw vector) as ``x0``; :func:`warm_start_vector`
  projects it into the current problem's bounds and capacity so COBYLA/SLSQP
  begin at a feasible, near-optimal point and steady-state autoscaler cycles
  converge in a fraction of the iterations.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import optimize as sciopt

from repro.core import interp
from repro.core.objectives import ClusterObjective
from repro.core.penalty import (
    penalty_multiplier,
    penalty_multiplier_relaxed,
    penalty_multipliers,
)
from repro.core.utility import SLO
from repro.queueing.vectorized import mdc_latency_table

__all__ = [
    "OptimizationJob",
    "ClusterCapacity",
    "AllocationProblem",
    "Allocation",
    "EvalCounter",
    "solve_allocation",
    "warm_start_vector",
    "UtilityTableCache",
    "DEFAULT_TABLE_CACHE",
    "build_utility_table",
    "DEFAULT_DROP_GRID",
]

#: Drop-rate grid used for the penalty variants' drop dimension.  No grid
#: point sits in the credit-free sub-1% band on purpose: with a p99 SLO the
#: *measured* percentile latency becomes infinite as soon as >= 1% of
#: requests are dropped (dropped requests count as infinitely late, §6
#: Metrics), so "penalty-free" small drops would still breach the SLO the
#: experiment scores.  Drops only pay off at rates that also shed real
#: load, which the 5%-step grid covers.
DEFAULT_DROP_GRID: tuple[float, ...] = tuple(np.round(np.linspace(0.0, 0.6, 13), 3))

#: Row budget per chunk in batched evaluation; bounds peak gather memory
#: while keeping per-row results independent of how candidates are batched.
_EVAL_CHUNK = 2048


@dataclass(frozen=True)
class OptimizationJob:
    """One job as seen by the optimizer.

    ``rates`` holds predicted arrival-rate scenarios in requests/second --
    typically the flattened (window step x prediction sample) set produced by
    the probabilistic predictor; ``weights`` are optional scenario weights.

    ``current_replicas`` and ``coldstart_weight`` implement cold-start-aware
    planning (§4.1): a fraction ``coldstart_weight`` of the window is served
    by ``min(current, x)`` replicas because newly requested replicas are
    still starting.
    """

    name: str
    proc_time: float
    slo: SLO
    rates: tuple[float, ...]
    weights: tuple[float, ...] | None = None
    priority: float = 1.0
    cpu_per_replica: float = 1.0
    mem_per_replica: float = 1.0
    min_replicas: int = 1
    current_replicas: int | None = None
    coldstart_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.proc_time <= 0:
            raise ValueError(f"processing time must be positive, got {self.proc_time}")
        if not self.rates:
            raise ValueError("rates must be non-empty")
        if not all(math.isfinite(r) for r in self.rates):
            raise ValueError(f"job {self.name!r}: rates must be finite")
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be non-negative")
        if self.weights is not None and len(self.weights) != len(self.rates):
            raise ValueError(
                f"got {len(self.weights)} weights for {len(self.rates)} rates"
            )
        if self.min_replicas < 1:
            raise ValueError(f"min_replicas must be >= 1, got {self.min_replicas}")
        if not 0.0 <= self.coldstart_weight <= 1.0:
            raise ValueError(
                f"coldstart_weight must be in [0, 1], got {self.coldstart_weight}"
            )


@dataclass(frozen=True)
class ClusterCapacity:
    """Total cluster resources (paper: ``ResMax_cpu`` / ``ResMax_mem``)."""

    cpus: float
    mem: float

    def __post_init__(self) -> None:
        if self.cpus <= 0 or self.mem <= 0:
            raise ValueError(f"capacity must be positive, got {self}")

    @classmethod
    def of_replicas(
        cls, replicas: int, cpu_per_replica: float = 1.0, mem_per_replica: float = 1.0
    ) -> "ClusterCapacity":
        """Capacity expressed as a total replica budget (paper's framing)."""
        return cls(cpus=replicas * cpu_per_replica, mem=replicas * mem_per_replica)


@dataclass
class Allocation:
    """Result of one cluster optimization.

    ``nfev`` counts evaluation rows spent by the continuous/integer *solver*
    itself; ``post_nfev`` counts rows spent in shared post-processing
    (:func:`_round_allocation`'s greedy re-add and :func:`_optimize_drops`'
    grid sweeps), which historically went unreported and misattributed where
    planner time goes.  Total solve cost is ``nfev + post_nfev`` rows.
    """

    replicas: np.ndarray
    drops: np.ndarray
    objective_value: float
    solver_value: float
    solve_time: float
    nfev: int
    method: str
    post_nfev: int = 0

    def as_dict(self, jobs: Sequence[OptimizationJob]) -> dict[str, int]:
        return {job.name: int(r) for job, r in zip(jobs, self.replicas)}


class EvalCounter:
    """Mutable tally of evaluation rows, threaded through post-processing."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows = 0

    def add(self, rows: int) -> None:
        self.rows += int(rows)


# ------------------------------------------------------------- table cache


def _rates_digest(
    rates: Sequence[float], weights: Sequence[float] | None
) -> bytes:
    """Stable digest of a job's (rates, weights) scenario set."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(rates, dtype=float).tobytes())
    if weights is not None:
        h.update(b"w")
        h.update(np.asarray(weights, dtype=float).tobytes())
    return h.digest()


def utility_table_key(
    job: OptimizationJob,
    max_x: int,
    drops: np.ndarray,
    relaxed: bool,
    alpha: float | None,
    rho_max: float,
    latency_model: str,
) -> tuple:
    """Cache key covering exactly the inputs a utility table depends on.

    Job name, priority, ``min_replicas`` and cold-start state are excluded:
    they only matter at evaluation time, so identical workloads share one
    table.
    """
    return (
        float(job.proc_time),
        float(job.slo.target),
        float(job.slo.percentile),
        _rates_digest(job.rates, job.weights),
        int(max_x),
        tuple(float(d) for d in drops),
        bool(relaxed),
        None if alpha is None else float(alpha),
        float(rho_max),
        str(latency_model),
    )


def _utility_of_latency(
    latencies: np.ndarray, slo_target: float, alpha: float | None
) -> np.ndarray:
    if alpha is None:
        return (latencies <= slo_target).astype(float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(latencies > 0, slo_target / latencies, np.inf)
        values = np.power(np.minimum(ratio, 1.0), alpha)
    values = np.where(np.isinf(latencies), 0.0, values)
    return np.clip(values, 0.0, 1.0)


def build_utility_table(
    job: OptimizationJob,
    max_x: int,
    drops: np.ndarray,
    relaxed: bool,
    alpha: float | None,
    rho_max: float,
    latency_model: str,
) -> np.ndarray:
    """Utility table ``T[x, d_idx]`` for ``x = 0..max_x`` (row 0 is zero).

    The drop dimension stores the utility of *non-dropped* requests,
    i.e. ``U(L(lam * (1 - d), p, x), s)``; the penalty multiplier
    ``phi(d)`` is applied at evaluation time.  ``drops`` is the drop axis
    actually tabulated (``[0.0]`` for non-penalty objectives).
    """
    rates = np.asarray(job.rates, dtype=float)
    weights = (
        np.asarray(job.weights, dtype=float)
        if job.weights is not None
        else np.ones_like(rates)
    )
    weights = weights / weights.sum()
    drops = np.asarray(drops, dtype=float)
    # Scenario grid: every (rate, drop) pair, flattened.
    scenario_rates = np.outer(rates, 1.0 - drops).ravel()
    if latency_model == "upper":
        # Pessimistic batch estimator (§3.3-I): p * max(1, lam / x).
        replicas = np.arange(1, max_x + 1, dtype=float)[:, None]
        latencies = job.proc_time * np.maximum(
            scenario_rates[None, :] / replicas, 1.0
        )
    else:
        latencies = mdc_latency_table(
            job.slo.quantile,
            scenario_rates,
            job.proc_time,
            max_x,
            relaxed=relaxed,
            rho_max=rho_max,
        )  # (max_x, n_rates * n_drops)
    utilities = _utility_of_latency(latencies, job.slo.target, alpha)
    utilities = utilities.reshape(max_x, rates.shape[0], drops.shape[0])
    averaged = np.tensordot(weights, utilities, axes=([0], [1]))  # (max_x, n_drops)
    table = np.zeros((max_x + 1, drops.shape[0]), dtype=float)
    table[1:] = averaged
    return table


class UtilityTableCache:
    """Keyed LRU cache of per-job utility tables.

    Keys come from :func:`utility_table_key`; values are the read-only
    ``(max_x + 1, n_drops)`` tables of :func:`build_utility_table`.  Because
    tables are pure functions of their key, a hit is bit-for-bit identical
    to a rebuild -- caching can never change solver results, only skip the
    ``mdc_latency_table`` work that dominates problem construction.

    Eviction is LRU bounded by total table **bytes** (``max_bytes``, default
    128 MiB), so a 500-job cluster's small tables all fit while a handful of
    pathologically large drop tables cannot balloon memory.  ``maxsize``
    optionally also caps the entry count; ``maxsize=0`` disables storage
    entirely (every lookup rebuilds), which gives the cold-path behaviour
    benchmarks compare against.
    """

    def __init__(self, maxsize: int | None = None, max_bytes: int = 128 * 2**20) -> None:
        if maxsize is not None and maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def get_or_build(
        self,
        job: OptimizationJob,
        max_x: int,
        drops: np.ndarray,
        relaxed: bool,
        alpha: float | None,
        rho_max: float,
        latency_model: str,
    ) -> np.ndarray:
        key = utility_table_key(job, max_x, drops, relaxed, alpha, rho_max, latency_model)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        self.misses += 1
        table = build_utility_table(
            job, max_x, drops, relaxed, alpha, rho_max, latency_model
        )
        table.setflags(write=False)
        self._admit(key, table)
        return table

    def _admit(self, key: tuple, table: np.ndarray) -> None:
        """Store ``table`` under ``key``, honouring the size/byte bounds."""
        if self.maxsize == 0 or table.nbytes > self.max_bytes:
            return
        displaced = self._entries.pop(key, None)
        if displaced is not None:
            # Overwrite (reachable via load() on a file with duplicate keys,
            # or absorb/load races): release the displaced entry's bytes or
            # _bytes drifts upward and triggers premature LRU eviction.
            self._bytes -= displaced.nbytes
        self._entries[key] = table
        self._bytes += table.nbytes
        while self._bytes > self.max_bytes or (
            self.maxsize is not None and len(self._entries) > self.maxsize
        ):
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes

    def absorb(self, other: "UtilityTableCache") -> int:
        """Admit every entry of ``other`` into this cache, in LRU order.

        Returns the number of *new* keys admitted (existing keys are left
        in place -- tables are pure functions of their key, so both copies
        are bit-identical anyway).  This is how sweep workers warm the
        process-wide :data:`DEFAULT_TABLE_CACHE` from a persisted cache
        file without replacing the object other modules already hold.
        """
        admitted = 0
        for key, table in other._entries.items():
            if key in self._entries:
                continue
            self._admit(key, table)
            # _admit may reject (maxsize=0 / oversized table) or evict
            # *other* entries; only the key's own presence counts.
            if key in self._entries:
                admitted += 1
        return admitted

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "bytes": self._bytes,
        }

    # -------------------------------------------------------- persistence

    _PICKLE_VERSION = 1

    def save(self, path) -> None:
        """Persist all cached tables to ``path`` (LRU order preserved).

        Keys are pure functions of the problem inputs (stable digests), so
        a cache saved by one process warms the planner in another -- e.g. a
        fleet controller shipping pre-built tables to fresh replicas.  Uses
        pickle: only load files you wrote yourself.
        """
        payload = {
            "version": self._PICKLE_VERSION,
            "entries": [
                (key, np.asarray(table)) for key, table in self._entries.items()
            ],
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(
        cls, path, maxsize: int | None = None, max_bytes: int = 128 * 2**20
    ) -> "UtilityTableCache":
        """Rebuild a cache from :meth:`save` output.

        Entries are re-admitted through the normal LRU bounds (``maxsize``,
        ``max_bytes``), oldest first, so a smaller budget keeps the
        most-recently-used tables.  Loaded tables are bit-for-bit the saved
        ones; hit/miss counters start at zero.
        """
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        if not isinstance(payload, dict) or "entries" not in payload:
            raise ValueError(f"{path} is not a utility-table cache file")
        version = payload.get("version")
        if version != cls._PICKLE_VERSION:
            raise ValueError(
                f"unsupported cache file version {version!r} "
                f"(expected {cls._PICKLE_VERSION})"
            )
        cache = cls(maxsize=maxsize, max_bytes=max_bytes)
        for key, table in payload["entries"]:
            if not isinstance(key, tuple) or not isinstance(table, np.ndarray):
                raise ValueError(f"malformed cache entry in {path}")
            table = np.asarray(table)
            table.setflags(write=False)
            cache._admit(key, table)
        return cache

    def merge_save(self, path, *, lock: bool = True) -> int:
        """Write-back: merge this cache's entries *into* the file at ``path``.

        Unlike :meth:`save`, which clobbers, merge_save is safe for many
        workers persisting tables to one shared file: under an exclusive
        ``flock`` on a ``<path>.lock`` sidecar it re-reads the file's
        current entries, absorbs them (file entries win ties -- both copies
        are bit-identical anyway, tables being pure functions of their
        key), adds this cache's entries, and atomically replaces the file
        (write-temp-then-rename).  Returns the number of entries written.

        A missing file is created; a corrupt or incompatible one is
        overwritten with this cache's entries alone -- the same
        degrade-to-cold stance warm-up takes.  On platforms without
        ``fcntl`` (or with ``lock=False``) the merge still happens, just
        without inter-process exclusion.
        """
        path_str = os.fspath(path)
        lock_handle = None
        if lock:
            try:
                import fcntl

                lock_handle = open(path_str + ".lock", "ab")
                fcntl.flock(lock_handle, fcntl.LOCK_EX)
            except (ImportError, OSError):
                if lock_handle is not None:
                    lock_handle.close()
                lock_handle = None
        try:
            merged = type(self)(maxsize=None, max_bytes=self.max_bytes)
            if os.path.exists(path_str):
                try:
                    merged.absorb(type(self).load(path_str, max_bytes=self.max_bytes))
                except Exception:
                    pass  # unreadable existing file: replace with our entries
            merged.absorb(self)
            from repro.api.journal import atomic_write

            atomic_write(
                path_str,
                pickle.dumps(
                    {
                        "version": self._PICKLE_VERSION,
                        "entries": [
                            (key, np.asarray(table))
                            for key, table in merged._entries.items()
                        ],
                    },
                    protocol=pickle.HIGHEST_PROTOCOL,
                ),
            )
            return len(merged._entries)
        finally:
            if lock_handle is not None:
                lock_handle.close()


#: Process-wide default cache; :class:`AllocationProblem` uses it unless an
#: explicit ``table_cache`` is supplied.
DEFAULT_TABLE_CACHE = UtilityTableCache()


class AllocationProblem:
    """A concrete instance of the cluster optimization problem.

    ``relaxed=True`` builds the plateau-free formulation; ``alpha`` is the
    inverse-utility exponent (``None`` forces step utility even in relaxed
    mode, which is only useful for experiments on relaxation stages).

    ``table_cache`` supplies per-job utility tables (default: the shared
    :data:`DEFAULT_TABLE_CACHE`); see the module docstring for the keying
    and invariance guarantees.

    ``max_replicas_per_job`` optionally caps every job's replica upper bound
    (still at least its ``min_replicas``).  Without it a job's bound is the
    whole cluster (``capacity // footprint``), which makes per-job table
    size -- and hence problem construction -- scale with *cluster* size;
    with a cap, 1000+-job problems build tables in O(cap) rows per job.
    ``None`` (the default) preserves the historical uncapped bounds
    bit-for-bit.
    """

    def __init__(
        self,
        jobs: Sequence[OptimizationJob],
        capacity: ClusterCapacity,
        objective: ClusterObjective,
        relaxed: bool = True,
        alpha: float | None = 1.0,
        rho_max: float = 0.95,
        latency_model: str = "mdc",
        drop_grid: Sequence[float] = DEFAULT_DROP_GRID,
        table_cache: UtilityTableCache | None = None,
        max_replicas_per_job: int | None = None,
    ) -> None:
        if not jobs:
            raise ValueError("at least one job is required")
        if latency_model not in ("mdc", "upper"):
            raise ValueError(f"unknown latency_model {latency_model!r}")
        if max_replicas_per_job is not None and max_replicas_per_job < 1:
            raise ValueError(
                f"max_replicas_per_job must be >= 1, got {max_replicas_per_job}"
            )
        self.max_replicas_per_job = max_replicas_per_job
        self.jobs = list(jobs)
        self.capacity = capacity
        self.objective = objective
        self.relaxed = relaxed
        self.alpha = alpha
        self.rho_max = rho_max
        self.latency_model = latency_model
        self.drop_grid = np.asarray(sorted(set(drop_grid)), dtype=float)
        if self.drop_grid[0] != 0.0:
            raise ValueError("drop grid must include 0.0")
        self.table_cache = table_cache if table_cache is not None else DEFAULT_TABLE_CACHE
        self.num_jobs = len(self.jobs)
        self.max_replicas = np.array(
            [self._max_replicas_for(job) for job in self.jobs], dtype=int
        )
        self._cpu_vec = np.array([j.cpu_per_replica for j in self.jobs], dtype=float)
        self._mem_vec = np.array([j.mem_per_replica for j in self.jobs], dtype=float)
        self._mins_vec = np.array([j.min_replicas for j in self.jobs], dtype=int)
        min_total_cpu = float(np.dot(self._mins_vec, self._cpu_vec))
        if min_total_cpu > capacity.cpus + 1e-9:
            raise ValueError(
                f"infeasible: minimum replica CPUs {min_total_cpu} exceed "
                f"capacity {capacity.cpus}"
            )
        min_total_mem = float(np.dot(self._mins_vec, self._mem_vec))
        if min_total_mem > capacity.mem + 1e-9:
            raise ValueError(
                f"infeasible: minimum replica memory {min_total_mem} exceeds "
                f"capacity {capacity.mem}"
            )
        self._drop_axis = (
            self.drop_grid if objective.uses_drops else np.array([0.0])
        )
        self._tables = [
            self.table_cache.get_or_build(
                job,
                int(cap),
                self._drop_axis,
                self.relaxed,
                self.alpha,
                self.rho_max,
                self.latency_model,
            )
            for job, cap in zip(self.jobs, self.max_replicas)
        ]
        self._priorities = [job.priority for job in self.jobs]
        self._priorities_vec = np.asarray(self._priorities, dtype=float)
        # Flattened table layout for batched gathers: job i's table occupies
        # rows [offset_i, offset_i + (max_x_i + 1) * D) with row stride D.
        stride = self._drop_axis.shape[0]
        sizes = np.array([t.size for t in self._tables])
        self._table_offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self._flat_tables = np.concatenate([t.ravel() for t in self._tables])
        self._table_stride = stride
        self._max_row_f = self.max_replicas.astype(float)
        # Cold-start blending state (§4.1), evaluation-time only.
        self._cold_w = np.array(
            [
                j.coldstart_weight
                if (j.coldstart_weight > 0.0 and j.current_replicas is not None)
                else 0.0
                for j in self.jobs
            ]
        )
        self._cold_cur = np.array(
            [
                float(j.current_replicas) if j.current_replicas is not None else 0.0
                for j in self.jobs
            ]
        )
        self._cold_active = self._cold_w > 0.0
        self._has_cold = bool(self._cold_active.any())

    # ------------------------------------------------------------------ setup

    def _max_replicas_for(self, job: OptimizationJob) -> int:
        by_cpu = int(self.capacity.cpus // job.cpu_per_replica)
        by_mem = int(self.capacity.mem // job.mem_per_replica)
        bound = min(by_cpu, by_mem)
        if self.max_replicas_per_job is not None:
            bound = min(bound, self.max_replicas_per_job)
        return max(job.min_replicas, bound)

    # ------------------------------------------------------------ evaluation

    def job_utility(self, index: int, replicas: float, drop: float = 0.0) -> float:
        """Interpolated utility of job ``index`` at a fractional allocation.

        Applies cold-start blending when the job carries
        ``coldstart_weight > 0`` and a known ``current_replicas``.
        """
        job = self.jobs[index]
        value = self._interp(index, replicas, drop)
        if job.coldstart_weight > 0.0 and job.current_replicas is not None:
            effective = min(float(job.current_replicas), float(replicas))
            warm = self._interp(index, effective, drop)
            value = job.coldstart_weight * warm + (1.0 - job.coldstart_weight) * value
        return value

    def _interp(self, index: int, replicas: float, drop: float) -> float:
        table = self._tables[index]
        x = min(max(float(replicas), 0.0), float(table.shape[0] - 1))
        x_lo = int(math.floor(x))
        x_hi = min(x_lo + 1, table.shape[0] - 1)
        xf = x - x_lo
        if table.shape[1] == 1:
            lo, hi = table[x_lo, 0], table[x_hi, 0]
            return (1.0 - xf) * lo + xf * hi
        grid = self.drop_grid
        d = min(max(float(drop), grid[0]), grid[-1])
        d_hi_idx = int(np.searchsorted(grid, d))
        d_hi_idx = min(max(d_hi_idx, 1), grid.shape[0] - 1)
        d_lo_idx = d_hi_idx - 1
        span = grid[d_hi_idx] - grid[d_lo_idx]
        df = 0.0 if span == 0 else (d - grid[d_lo_idx]) / span
        lo = (1.0 - df) * table[x_lo, d_lo_idx] + df * table[x_lo, d_hi_idx]
        hi = (1.0 - df) * table[x_hi, d_lo_idx] + df * table[x_hi, d_hi_idx]
        return (1.0 - xf) * lo + xf * hi

    def _interp_many(self, replicas: np.ndarray, drops: np.ndarray) -> np.ndarray:
        """Vectorized bilinear interpolation over a ``(C, n)`` matrix.

        Elementwise mirror of :meth:`_interp` (same operation order, so
        results are bit-for-bit equal to the scalar path).  Delegates to
        :mod:`repro.core.interp`, which JIT-compiles the gather loop with
        numba when available (bit-identical to the numpy reference).
        """
        R = np.asarray(replicas, dtype=float)
        D = np.asarray(drops, dtype=float)
        if D.shape != R.shape:
            D = np.broadcast_to(D, R.shape)
        return interp.interp_flat(
            self._flat_tables,
            self._table_offsets,
            self._table_stride,
            self._max_row_f,
            self.max_replicas,
            self.drop_grid,
            R,
            D,
        )

    def utilities_many(self, replicas: np.ndarray, drops: np.ndarray) -> np.ndarray:
        """Per-job raw utilities for a ``(C, n)`` candidate matrix.

        Cold-start blending applied; the drop-penalty multiplier is not
        (see :meth:`effective_utilities_many`).
        """
        R = np.asarray(replicas, dtype=float)
        D = np.asarray(drops, dtype=float)
        values = self._interp_many(R, D)
        if self._has_cold:
            effective = np.minimum(self._cold_cur, R)
            warm = self._interp_many(effective, D)
            w = self._cold_w
            values = np.where(
                self._cold_active, w * warm + (1.0 - w) * values, values
            )
        return values

    def effective_utilities_many(
        self, replicas: np.ndarray, drops: np.ndarray
    ) -> np.ndarray:
        """Per-job *effective* utilities (``phi(d) * U``) for ``(C, n)`` input."""
        U = self.utilities_many(replicas, drops)
        if self.objective.uses_drops:
            D = np.clip(np.asarray(drops, dtype=float), 0.0, 1.0)
            U = U * penalty_multipliers(D, relaxed=self.relaxed)
        return U

    def effective_utilities(self, replicas: np.ndarray, drops: np.ndarray) -> list[float]:
        """Per-job (effective) utilities for an allocation vector."""
        R = np.asarray(replicas, dtype=float).reshape(1, -1)
        D = np.asarray(drops, dtype=float).reshape(1, -1)
        return [float(v) for v in self.effective_utilities_many(R, D)[0]]

    def evaluate_many(
        self, replicas: np.ndarray, drops: np.ndarray | None = None
    ) -> np.ndarray:
        """Cluster objective scores for a ``(C, n)`` candidate matrix.

        Contract: ``evaluate_many(X, D)[i]`` equals
        ``evaluate(X[i], D[i])`` bit-for-bit -- the scalar path is the
        one-row batched path.  ``drops`` may be omitted (all zeros) or a
        single row (broadcast across candidates).  Large batches are chunked
        internally, which does not affect per-row results.
        """
        R = np.atleast_2d(np.asarray(replicas, dtype=float))
        if R.shape[1] != self.num_jobs:
            raise ValueError(
                f"expected {self.num_jobs} columns, got shape {R.shape}"
            )
        if drops is None:
            D = np.zeros_like(R)
        else:
            D = np.atleast_2d(np.asarray(drops, dtype=float))
            if D.shape[0] == 1 and R.shape[0] > 1:
                D = np.broadcast_to(D, R.shape)
            if D.shape != R.shape:
                raise ValueError(
                    f"drops shape {D.shape} does not match replicas shape {R.shape}"
                )
        out = np.empty(R.shape[0], dtype=float)
        for start in range(0, R.shape[0], _EVAL_CHUNK):
            sl = slice(start, start + _EVAL_CHUNK)
            U = self.effective_utilities_many(R[sl], D[sl])
            out[sl] = self.objective.evaluate_many(U, self._priorities_vec)
        return out

    def evaluate(self, replicas: np.ndarray, drops: np.ndarray | None = None) -> float:
        """Cluster objective score (to maximize) for an allocation."""
        R = np.asarray(replicas, dtype=float).reshape(1, -1)
        D = None if drops is None else np.asarray(drops, dtype=float).reshape(1, -1)
        return float(self.evaluate_many(R, D)[0])

    def evaluate_perturbed(
        self,
        replicas: np.ndarray,
        deltas: np.ndarray | float,
        drops: np.ndarray | None = None,
        axis: str = "replicas",
    ) -> tuple[float, np.ndarray]:
        """Score the base point and every single-coordinate perturbation.

        Returns ``(base, scores)`` where ``scores[j]`` equals
        ``evaluate_many(P, drops)[j]`` for the ``(n, n)`` matrix ``P`` whose
        row ``j`` is ``replicas`` with coordinate ``j`` bumped by
        ``deltas[j]`` -- bit-for-bit (per-job utilities are elementwise in
        the replica matrix, so a perturbed row's utilities differ from the
        base row only in the perturbed column).  Cost: **two** table
        interpolation rows plus the cheap objective reduction, instead of
        the ``n`` full rows the naive perturbation matrix needs.  This is
        the finite-difference / greedy-scan primitive behind the batched
        first-order solver and integer rounding at 1000+ jobs.

        ``axis="drops"`` perturbs the drop coordinates instead (replicas
        held fixed): ``scores[j]`` matches ``evaluate_many`` over the drop
        matrix whose row ``j`` bumps ``drops[j]`` by ``deltas[j]`` -- the
        same two-row trick, since effective utilities are elementwise in
        the drop matrix too.
        """
        x = np.asarray(replicas, dtype=float)
        n = self.num_jobs
        if axis not in ("replicas", "drops"):
            raise ValueError(f"unknown perturbation axis {axis!r}")
        if x.shape != (n,):
            raise ValueError(f"expected a length-{n} replica vector, got shape {x.shape}")
        delta = np.broadcast_to(np.asarray(deltas, dtype=float), (n,))
        d = np.zeros(n) if drops is None else np.asarray(drops, dtype=float)
        if d.shape != (n,):
            raise ValueError(f"expected a length-{n} drop vector, got shape {d.shape}")
        if axis == "replicas":
            EU = self.effective_utilities_many(
                np.stack([x, x + delta]), np.stack([d, d])
            )
        else:
            EU = self.effective_utilities_many(
                np.stack([x, x]), np.stack([d, d + delta])
            )
        base_row, pert_diag = EU[0], EU[1]
        base = float(self.objective.evaluate_many(base_row[None, :], self._priorities_vec)[0])
        scores = np.empty(n, dtype=float)
        for start in range(0, n, _EVAL_CHUNK):
            stop = min(start + _EVAL_CHUNK, n)
            count = stop - start
            block = np.repeat(base_row[None, :], count, axis=0)
            block[np.arange(count), np.arange(start, stop)] = pert_diag[start:stop]
            scores[start:stop] = self.objective.evaluate_many(block, self._priorities_vec)
        return base, scores

    def cpu_usage(self, replicas: np.ndarray) -> float:
        return float(np.dot(np.asarray(replicas, dtype=float), self._cpu_vec))

    def mem_usage(self, replicas: np.ndarray) -> float:
        return float(np.dot(np.asarray(replicas, dtype=float), self._mem_vec))

    def is_feasible(self, replicas: np.ndarray) -> bool:
        return (
            self.cpu_usage(replicas) <= self.capacity.cpus + 1e-9
            and self.mem_usage(replicas) <= self.capacity.mem + 1e-9
            and bool(np.all(np.asarray(replicas) >= self._mins_vec))
        )


# ------------------------------------------------------------------- solvers


def _split_vars(problem: AllocationProblem, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = problem.num_jobs
    replicas = z[:n]
    drops = z[n:] if problem.objective.uses_drops else np.zeros(n)
    return replicas, drops


def _project_into_capacity(problem: AllocationProblem, x: np.ndarray) -> np.ndarray:
    """Project a replica vector onto the feasible box and capacity simplex.

    Every job keeps at least its minimum; the surplus above the minimums is
    scaled by the largest factor in ``[0, 1]`` that fits both CPU and memory
    capacity.  Because resource usage is affine in the surplus, one scaling
    per resource is exact -- no scale-then-floor iteration that could bounce
    usage back above capacity (the historical infeasible-start bug).
    """
    mins = problem._mins_vec.astype(float)
    x = np.clip(np.asarray(x, dtype=float), mins, problem.max_replicas.astype(float))
    surplus = x - mins
    for usage_vec, cap in (
        (problem._cpu_vec, problem.capacity.cpus),
        (problem._mem_vec, problem.capacity.mem),
    ):
        base = float(np.dot(mins, usage_vec))
        extra = float(np.dot(surplus, usage_vec))
        if extra > 0.0 and base + extra > cap:
            surplus *= max(0.0, (cap - base) / extra)
    return mins + surplus


def _default_start(problem: AllocationProblem) -> np.ndarray:
    """Fair-share starting point: capacity split evenly, projected feasible."""
    n = problem.num_jobs
    per_job = problem.capacity.cpus / max(
        sum(j.cpu_per_replica for j in problem.jobs), 1e-9
    )
    x0 = np.array(
        [min(max(per_job, j.min_replicas), m) for j, m in zip(problem.jobs, problem.max_replicas)],
        dtype=float,
    )
    x0 = _project_into_capacity(problem, x0)
    if problem.objective.uses_drops:
        return np.concatenate([x0, np.zeros(n)])
    return x0


def warm_start_vector(problem: AllocationProblem, allocation: Allocation) -> np.ndarray:
    """Continuous solver start from a previous cycle's :class:`Allocation`.

    The previous replica counts are projected into the current problem's
    bounds and capacity (the job list must have the same length and order);
    for penalty objectives the previous drop rates seed the drop variables.
    Feeding this as ``x0`` lets steady-state autoscaler cycles start COBYLA
    at a feasible, near-optimal point.
    """
    replicas = np.asarray(allocation.replicas, dtype=float)
    if replicas.shape[0] != problem.num_jobs:
        raise ValueError(
            f"warm start has {replicas.shape[0]} jobs, problem has {problem.num_jobs}"
        )
    x0 = _project_into_capacity(problem, replicas)
    if problem.objective.uses_drops:
        drops = np.asarray(allocation.drops, dtype=float)
        if drops.shape[0] != problem.num_jobs:
            # Same contract as the replica path: a length mismatch means the
            # caller's job list changed between cycles -- fail loudly rather
            # than silently zeroing the drop seed.
            raise ValueError(
                f"warm start has {drops.shape[0]} drop rates, "
                f"problem has {problem.num_jobs} jobs"
            )
        drops = np.clip(drops, 0.0, problem.drop_grid[-1])
        return np.concatenate([x0, drops])
    return x0


def _constraint_functions(problem: AllocationProblem):
    """All inequality constraints as ONE array-valued callback.

    COBYLA/SLSQP accept vector constraint functions; a single numpy pass
    replaces the historical ``2n + 2`` per-scalar Python callbacks that
    dominated per-iteration cost on large problems.  Component order matches
    the old scalar list (cpu, mem, per-job min/max interleaved, per-job drop
    lo/hi interleaved) so solver trajectories are unchanged.
    """
    n = problem.num_jobs
    mins = problem._mins_vec.astype(float)
    maxs = problem.max_replicas.astype(float)
    uses_drops = problem.objective.uses_drops
    drop_max = float(problem.drop_grid[-1])
    size = 2 + 2 * n + (2 * n if uses_drops else 0)

    def all_slacks(z: np.ndarray) -> np.ndarray:
        replicas = z[:n]
        slacks = np.empty(size)
        slacks[0] = problem.capacity.cpus - problem.cpu_usage(replicas)
        slacks[1] = problem.capacity.mem - problem.mem_usage(replicas)
        slacks[2 : 2 + 2 * n : 2] = replicas - mins
        slacks[3 : 2 + 2 * n : 2] = maxs - replicas
        if uses_drops:
            drops = z[n:]
            slacks[2 + 2 * n :: 2] = drops
            slacks[3 + 2 * n :: 2] = drop_max - drops
        return slacks

    return [{"type": "ineq", "fun": all_slacks}]


def _negative_objective(problem: AllocationProblem):
    counter = {"nfev": 0}

    def fun(z: np.ndarray) -> float:
        counter["nfev"] += 1
        replicas, drops = _split_vars(problem, z)
        return -problem.evaluate(replicas, drops)

    return fun, counter


def _can_add_mask(problem: AllocationProblem, ints: np.ndarray) -> np.ndarray:
    """Per-job mask: can one more replica be added within bounds and capacity?"""
    cpu_now = problem.cpu_usage(ints)
    mem_now = problem.mem_usage(ints)
    return (
        (ints < problem.max_replicas)
        & (cpu_now + problem._cpu_vec <= problem.capacity.cpus + 1e-9)
        & (mem_now + problem._mem_vec <= problem.capacity.mem + 1e-9)
    )


def _round_allocation(
    problem: AllocationProblem,
    replicas: np.ndarray,
    counter: EvalCounter | None = None,
) -> np.ndarray:
    """Integer post-processing (paper §4.2).

    Floors the continuous solution (respecting per-job minimums), trims by
    resource footprint while over capacity, then greedily re-adds replicas
    by best marginal objective gain -- the candidate scan is one structured
    :meth:`AllocationProblem.evaluate_perturbed` pass per round (bit-identical
    to the historical full ``evaluate_many`` scan, but two interpolation rows
    instead of ``n``).  ``counter``, when given, tallies the evaluation rows
    spent here for :class:`Allocation.post_nfev`.
    """
    mins = problem._mins_vec
    ints = np.clip(np.floor(replicas + 1e-9).astype(int), mins, problem.max_replicas)
    cap = problem.capacity
    # If the minimum-respecting floor exceeds capacity, trim the replica
    # whose removal frees the most of the violated resource(s) -- one
    # expensive replica beats many cheap ones.
    while True:
        cpu_excess = problem.cpu_usage(ints) - cap.cpus
        mem_excess = problem.mem_usage(ints) - cap.mem
        if cpu_excess <= 1e-9 and mem_excess <= 1e-9:
            break
        candidates = np.flatnonzero(ints > mins)
        if candidates.size == 0:
            raise ValueError(
                "infeasible rounding: minimum replicas alone exceed cluster "
                f"capacity (cpu excess {max(cpu_excess, 0.0):.3g}, "
                f"mem excess {max(mem_excess, 0.0):.3g})"
            )
        freed = np.zeros(problem.num_jobs)
        if cpu_excess > 1e-9:
            freed += problem._cpu_vec / cap.cpus
        if mem_excess > 1e-9:
            freed += problem._mem_vec / cap.mem
        scores = freed[candidates]
        near_best = candidates[scores >= scores.max() - 1e-12]
        victim = near_best[int(np.argmax(ints[near_best]))]
        ints[victim] -= 1
    drops = np.zeros(problem.num_jobs)
    while True:
        idx = np.flatnonzero(_can_add_mask(problem, ints))
        if idx.size == 0:
            break
        base, scores = problem.evaluate_perturbed(ints.astype(float), 1.0, drops)
        if counter is not None:
            counter.add(idx.size + 1)
        gains = scores[idx] - base
        best = int(np.argmax(gains))
        if gains[best] <= 1e-12:
            break
        ints[idx[best]] += 1
    return ints


def _optimize_drops(
    problem: AllocationProblem,
    replicas: np.ndarray,
    counter: EvalCounter | None = None,
) -> np.ndarray:
    """Per-job drop-rate grid refinement for penalty objectives.

    Coordinate descent; each job's whole drop grid is scored in one
    batched evaluation.  ``counter`` tallies the rows spent here for
    :class:`Allocation.post_nfev`.
    """
    drops = np.zeros(problem.num_jobs)
    if not problem.objective.uses_drops:
        return drops
    grid = problem.drop_grid
    R = np.repeat(np.asarray(replicas, dtype=float)[None, :], grid.shape[0], axis=0)
    for i in range(problem.num_jobs):
        trials = np.repeat(drops[None, :], grid.shape[0], axis=0)
        trials[:, i] = grid
        values = problem.evaluate_many(R, trials)
        if counter is not None:
            counter.add(grid.shape[0])
        best_d, best_v = 0.0, -math.inf
        for d, value in zip(grid, values):
            if value > best_v + 1e-12:
                best_v, best_d = float(value), float(d)
        drops[i] = best_d
    return drops


def _solve_scipy(
    problem: AllocationProblem, method: str, x0: np.ndarray, maxiter: int
) -> tuple[np.ndarray, float, int]:
    fun, counter = _negative_objective(problem)
    constraints = _constraint_functions(problem)
    options = {"maxiter": maxiter}
    if method == "cobyla":
        # Paper §5: initial variable change (rhobeg) of 2.
        options = {"maxiter": maxiter, "rhobeg": 2.0}
    result = sciopt.minimize(
        fun,
        x0,
        method=method.upper(),
        constraints=constraints,
        options=options,
    )
    return np.asarray(result.x, dtype=float), float(-result.fun), counter["nfev"]


def _solve_de(
    problem: AllocationProblem, maxiter: int, seed: int | None
) -> tuple[np.ndarray, float, int]:
    n = problem.num_jobs
    bounds = [
        (float(problem.jobs[i].min_replicas), float(problem.max_replicas[i]))
        for i in range(n)
    ]
    if problem.objective.uses_drops:
        bounds += [(0.0, float(problem.drop_grid[-1]))] * n
    fun, counter = _negative_objective(problem)

    def penalized(z: np.ndarray) -> float:
        replicas, _ = _split_vars(problem, z)
        cpu_excess = max(0.0, problem.cpu_usage(replicas) - problem.capacity.cpus)
        mem_excess = max(0.0, problem.mem_usage(replicas) - problem.capacity.mem)
        return fun(z) + 10.0 * (cpu_excess + mem_excess)

    result = sciopt.differential_evolution(
        penalized,
        bounds=bounds,
        maxiter=maxiter,
        seed=seed,
        polish=False,
        tol=1e-6,
    )
    return np.asarray(result.x, dtype=float), float(-result.fun), counter["nfev"]


def _greedy_phase1(
    problem: AllocationProblem, counter: EvalCounter | None = None
) -> np.ndarray:
    """Phase 1 of the greedy solver: monotone capacity fill (integer vector).

    Starts from per-job minimums and repeatedly adds the replica with the
    best marginal gain in the priority-weighted utility *sum* (one two-row
    utility pass per round).  Exposed separately so the batched first-order
    solver's differential suite can assert "never worse than greedy
    phase-1" without paying phase 2's hill climb.
    """
    ints = problem._mins_vec.copy()
    priorities = problem._priorities_vec
    while True:
        pair = np.stack([ints, np.minimum(ints + 1, problem.max_replicas)]).astype(float)
        utilities = problem.utilities_many(pair, np.zeros_like(pair))
        if counter is not None:
            counter.add(2)
        gains = priorities * (utilities[1] - utilities[0])
        gains = np.where(_can_add_mask(problem, ints), gains, -np.inf)
        best = int(np.argmax(gains))
        if not np.isfinite(gains[best]) or gains[best] <= 1e-12:
            break
        ints[best] += 1
    return ints


def _solve_greedy(problem: AllocationProblem) -> tuple[np.ndarray, float, int]:
    """Two-phase integer search used as a deterministic reference solver.

    Phase 1 greedily fills capacity by marginal gain in the priority-weighted
    utility sum (monotone in replicas, so it never stalls on fairness terms;
    priority weighting ensures high-priority jobs fill first when marginal
    gains tie -- single-replica moves in phase 2 cannot repair a
    wrong-way tie-break on an overloaded job's utility plateau); phase 2
    hill-climbs the *actual* objective with add / remove / transfer moves.
    Serves as the "best found" reference in normalized-optimality
    experiments (Fig. 5).  Both phases score candidates through batched
    evaluation: phase 1 needs one two-row utility pass per round, phase 2
    one ``evaluate_many`` over the whole move set.
    """
    n = problem.num_jobs
    counter = EvalCounter()
    ints = _greedy_phase1(problem, counter)
    drops = np.zeros(n)
    nfev = counter.rows
    cap = problem.capacity

    for _ in range(50 * n):
        base = problem.evaluate(ints, drops)
        nfev += 1
        cpu_now = problem.cpu_usage(ints)
        mem_now = problem.mem_usage(ints)
        can_add = _can_add_mask(problem, ints)
        moves: list[np.ndarray] = []
        for i in range(n):
            if can_add[i]:
                add = ints.copy()
                add[i] += 1
                moves.append(add)
            sub = ints.copy()
            sub[i] -= 1
            if sub[i] >= problem.jobs[i].min_replicas:
                moves.append(sub)
            for j in range(n):
                if j == i:
                    continue
                if (
                    ints[i] - 1 >= problem.jobs[i].min_replicas
                    and ints[j] + 1 <= problem.max_replicas[j]
                    and cpu_now - problem._cpu_vec[i] + problem._cpu_vec[j]
                    <= cap.cpus + 1e-9
                    and mem_now - problem._mem_vec[i] + problem._mem_vec[j]
                    <= cap.mem + 1e-9
                ):
                    transfer = ints.copy()
                    transfer[i] -= 1
                    transfer[j] += 1
                    moves.append(transfer)
        if not moves:
            break
        trials = np.asarray(moves, dtype=float)
        values = problem.evaluate_many(trials, drops[None, :])
        nfev += len(moves)
        gains = values - base
        best = int(np.argmax(gains))
        if gains[best] <= 1e-12:
            break
        ints = moves[best]
    return ints.astype(float), problem.evaluate(ints, drops), nfev


def solve_allocation(
    problem: AllocationProblem,
    method: str = "cobyla",
    x0: np.ndarray | Allocation | None = None,
    maxiter: int = 1000,
    seed: int | None = None,
    solver_options: dict | None = None,
) -> Allocation:
    """Solve the cluster optimization and return an integer allocation.

    ``method`` is one of ``"cobyla"`` (paper default), ``"slsqp"``, ``"pgd"``
    (batched projected gradient ascent, :mod:`repro.core.batched_solver`),
    ``"de"`` (differential evolution) or ``"greedy"`` (integer hill
    climbing).  The continuous solution is post-processed into a feasible
    integer allocation and, for penalty objectives, per-job drop rates are
    refined on a grid.

    ``x0`` warm-starts the local solvers: pass a previous cycle's
    :class:`Allocation` (projected feasible via :func:`warm_start_vector`)
    or a raw variable vector.  ``"de"`` and ``"greedy"`` ignore it.

    ``solver_options`` holds method-specific knobs -- currently only
    ``"pgd"`` accepts any (the :class:`~repro.core.batched_solver.PGDOptions`
    fields); passing options to another method raises so spec-file typos
    fail loudly.  ``"pgd"`` paces itself by its own ``maxiter`` option (one
    iteration = a full batched gradient pass, a different unit from COBYLA
    iterations), so this function's ``maxiter`` does not apply to it.
    """
    method = method.lower()
    started = time.perf_counter()
    if solver_options and method != "pgd":
        raise ValueError(
            f"solver_options is only supported for method='pgd', got method={method!r}"
        )
    if isinstance(x0, Allocation):
        x0 = warm_start_vector(problem, x0)
    if x0 is None:
        x0 = _default_start(problem)
    if method in ("cobyla", "slsqp"):
        z, solver_value, nfev = _solve_scipy(problem, method, x0, maxiter)
    elif method == "pgd":
        from repro.core.batched_solver import solve_pgd

        z, solver_value, nfev = solve_pgd(problem, x0=x0, options=solver_options)
        z = np.concatenate([z, np.zeros(problem.num_jobs)]) if problem.objective.uses_drops else z
    elif method == "de":
        z, solver_value, nfev = _solve_de(problem, maxiter, seed)
    elif method == "greedy":
        z, solver_value, nfev = _solve_greedy(problem)
        z = np.concatenate([z, np.zeros(problem.num_jobs)]) if problem.objective.uses_drops else z
    else:
        raise ValueError(f"unknown method {method!r}")
    replicas_cont, _ = _split_vars(problem, z)
    post = EvalCounter()
    replicas = _round_allocation(problem, replicas_cont, post)
    drops = _optimize_drops(problem, replicas, post)
    value = problem.evaluate(replicas, drops)
    return Allocation(
        replicas=replicas,
        drops=drops,
        objective_value=value,
        solver_value=solver_value,
        solve_time=time.perf_counter() - started,
        nfev=nfev,
        method=method,
        post_nfev=post.rows,
    )
