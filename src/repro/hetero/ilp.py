"""ILP placement baseline for heterogeneous replica assignment.

Solves the device-class placement problem as an integer linear program in
the classic assignment style: integer variables ``x[j][c]`` count replicas
of device class ``c`` given to job ``j``, continuous variables ``s[j]``
carry the served request rate, and the objective maximizes the
priority-weighted normalized goodput ``sum_j w_j * s_j / lambda_j`` --
the linear counterpart of the ``throughput`` objective in
:mod:`repro.hetero.allocation`.  Constraints:

- *assignment*: every job keeps at least one replica (Faro's ``x_i >= 1``);
- *per-class inventory*: ``sum_j x[j][c] <= count_c`` when the problem
  carries device-class counts;
- *per-resource capacity*: vCPU / memory / accelerator totals stay within
  :class:`~repro.hetero.types.HeteroCapacity`;
- *SLO infeasibility*: ``x[j][c]`` is pinned to zero when the class's
  service time alone (``proc_time / speedup``) already exceeds the job's
  latency target, unless *every* class is infeasible for the job (then the
  ``x_i >= 1`` seed must still land somewhere).

The solve is a scipy ``linprog`` LP relaxation (HiGHS) followed by
floor-rounding and the same greedy marginal-utility repair the native
solver uses.  The differential test pins the rounded result within
tolerance of greedy-with-repair on small instances.
"""

from __future__ import annotations

import math

from repro.hetero.allocation import (
    HeteroAllocation,
    HeteroJob,
    HeteroProblem,
    _greedy_fill,
    build_allocation,
)
from repro.hetero.types import ReplicaType

__all__ = ["solve_ilp_allocation"]


def _allowed_types(problem: HeteroProblem, job: HeteroJob) -> list[ReplicaType]:
    """Classes not ruled out by the SLO-infeasibility constraint for ``job``."""
    allowed = []
    for rtype in problem.feasible_types:
        speedup = problem.job_speedup(job, rtype)
        if job.proc_time / speedup <= job.slo.target + 1e-12:
            allowed.append(rtype)
    # If no class can meet the SLO even unloaded, the x_i >= 1 constraint
    # still needs somewhere to land -- relax the infeasibility cut entirely.
    return allowed or list(problem.feasible_types)


def _type_upper_bound(problem: HeteroProblem, rtype: ReplicaType) -> float:
    """Largest replica count of ``rtype`` any single job could ever hold."""
    bound = math.inf
    if problem.type_counts is not None:
        limit = problem.type_counts.get(rtype.name)
        if limit is not None:
            bound = float(limit)
    for need, have in (
        (rtype.cpus, problem.capacity.cpus),
        (rtype.mem, problem.capacity.mem),
        (rtype.accels, problem.capacity.accels),
    ):
        if need > 0:
            bound = min(bound, math.floor(have / need + 1e-9))
    return max(bound, 0.0)


def _solve_lp_relaxation(problem: HeteroProblem) -> dict[str, dict[ReplicaType, int]]:
    """scipy HiGHS LP relaxation, floor-rounded (repair happens later)."""
    from scipy.optimize import linprog

    jobs, types = problem.jobs, problem.feasible_types
    n_jobs, n_types = len(jobs), len(types)
    n_x = n_jobs * n_types

    def xi(j: int, k: int) -> int:
        return j * n_types + k

    allowed = {job.name: {t.name for t in _allowed_types(problem, job)} for job in jobs}
    objective = [0.0] * (n_x + n_jobs)
    bounds: list[tuple[float, float]] = []
    for j, job in enumerate(jobs):
        for rtype in types:
            if rtype.name not in allowed[job.name]:
                bounds.append((0.0, 0.0))
            else:
                bounds.append((0.0, _type_upper_bound(problem, rtype)))
    for j, job in enumerate(jobs):
        if job.arrival_rate > 0:
            objective[n_x + j] = -job.priority / job.arrival_rate
            bounds.append((0.0, job.arrival_rate))
        else:
            bounds.append((0.0, 0.0))

    rows: list[list[float]] = []
    rhs: list[float] = []
    if problem.type_counts is not None:
        for k, rtype in enumerate(types):
            limit = problem.type_counts.get(rtype.name)
            if limit is None:
                continue
            row = [0.0] * (n_x + n_jobs)
            for j in range(n_jobs):
                row[xi(j, k)] = 1.0
            rows.append(row)
            rhs.append(float(limit))
    for attr, total in (
        ("cpus", problem.capacity.cpus),
        ("mem", problem.capacity.mem),
        ("accels", problem.capacity.accels),
    ):
        row = [0.0] * (n_x + n_jobs)
        for j in range(n_jobs):
            for k, rtype in enumerate(types):
                row[xi(j, k)] = getattr(rtype, attr)
        rows.append(row)
        rhs.append(float(total))
    for j, job in enumerate(jobs):
        # served_j <= sum_c x[j][c] * speedup / proc_time
        row = [0.0] * (n_x + n_jobs)
        row[n_x + j] = 1.0
        for k, rtype in enumerate(types):
            row[xi(j, k)] = -problem.job_speedup(job, rtype) / job.proc_time
        rows.append(row)
        rhs.append(0.0)
        # x_i >= 1
        row = [0.0] * (n_x + n_jobs)
        for k in range(n_types):
            row[xi(j, k)] = -1.0
        rows.append(row)
        rhs.append(-1.0)

    result = linprog(objective, A_ub=rows, b_ub=rhs, bounds=bounds, method="highs")
    if not result.success:
        raise ValueError(
            f"ILP placement LP relaxation is infeasible: {result.message}"
        )
    counts: dict[str, dict[ReplicaType, int]] = {}
    for j, job in enumerate(jobs):
        counts[job.name] = {}
        for k, rtype in enumerate(types):
            value = int(math.floor(result.x[xi(j, k)] + 1e-9))
            if value > 0:
                counts[job.name][rtype] = value
    return counts


def _repair_empty_jobs(
    problem: HeteroProblem, counts: dict[str, dict[ReplicaType, int]]
) -> None:
    """Restore ``x_i >= 1`` after floor-rounding, stealing if nothing fits."""
    for job in problem.jobs:
        if sum(counts[job.name].values()) > 0:
            continue
        usage = problem.usage(counts)
        type_usage = problem.type_usage(counts)
        placed = False
        for rtype in sorted(_allowed_types(problem, job), key=problem._scarcity_cost):
            if problem._fits_with(usage, rtype) and problem._type_available(
                type_usage, rtype
            ):
                counts[job.name][rtype] = 1
                placed = True
                break
        if placed:
            continue
        # Nothing fits: move one replica from the most-provisioned job.
        donors = [
            other
            for other in problem.jobs
            if sum(counts[other.name].values()) >= 2
        ]
        if not donors:
            raise ValueError(
                f"cannot give job {job.name!r} a replica: cluster capacity "
                "exhausted and no job has replicas to spare"
            )
        donor = max(donors, key=lambda other: sum(counts[other.name].values()))
        pools = counts[donor.name]
        rtype = max(pools, key=pools.get)
        pools[rtype] -= 1
        if pools[rtype] == 0:
            del pools[rtype]
        counts[job.name][rtype] = 1


def solve_ilp_allocation(
    problem: HeteroProblem, tol: float = 1e-9
) -> HeteroAllocation:
    """LP-relaxation-and-repair solve of the placement problem.

    The returned :class:`HeteroAllocation` reports utilities under
    ``problem.objective`` like the greedy solver does, so the two are
    directly comparable; with ``objective='throughput'`` both optimize the
    same normalized-goodput metric the ILP encodes linearly.
    """
    counts = _solve_lp_relaxation(problem)
    _repair_empty_jobs(problem, counts)
    # Spend capacity the rounding left on the table, greedily by marginal
    # utility per scarcity cost -- the same repair the greedy solver uses.
    _greedy_fill(problem, counts, tol)
    return build_allocation(problem, counts)
